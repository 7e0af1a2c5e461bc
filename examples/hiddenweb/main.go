// Command hiddenweb demonstrates the fully remote path: it launches
// HTTP servers that behave like real Hidden-Web search sites (HTML
// answer pages stating "Results 1 - 10 of about N documents"), then
// drives a metasearcher that only ever talks to them over the network —
// scraping answer pages, sampling content summaries through the search
// interface, learning error distributions, and probing adaptively.
//
// Run it with:
//
//	go run ./examples/hiddenweb
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"metaprobe"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to w. The servers it starts listen
// on free loopback ports, so the addresses it prints differ run to run.
func run(w io.Writer) error {
	// Generate four topical collections and put each behind its own
	// HTTP search interface on a loopback port.
	world := corpus.HealthWorld()
	specs := []corpus.DatabaseSpec{
		{Name: "OncoSite", NumDocs: 800, MeanDocLen: 25, ConceptAffinity: 0.5,
			TopicWeights: map[string]float64{"oncology": 8, "pharma": 1}},
		{Name: "CardioSite", NumDocs: 700, MeanDocLen: 25, ConceptAffinity: 0.45,
			TopicWeights: map[string]float64{"cardiology": 8, "nutrition": 1}},
		{Name: "PediSite", NumDocs: 500, MeanDocLen: 25, ConceptAffinity: 0.35,
			TopicWeights: map[string]float64{"pediatrics": 8, "infectious": 2}},
		{Name: "NewsSite", NumDocs: 400, MeanDocLen: 25, ConceptAffinity: 0.15,
			TopicWeights: map[string]float64{"news": 6, "oncology": 1, "cardiology": 1}},
	}
	rng := stats.NewRNG(7)
	var dbs []metaprobe.Database
	for i, spec := range specs {
		docs, err := world.Generate(spec, rng.Fork(int64(i)))
		if err != nil {
			return err
		}
		local := hidden.BuildLocal(spec.Name, docs)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: hidden.NewServer(local)}
		go srv.Serve(ln)
		defer srv.Close()
		url := "http://" + ln.Addr().String()
		fmt.Fprintf(w, "serving %-10s at %s (%d docs)\n", spec.Name, url, local.Size())

		// The metasearcher side: an HTML-scraping client, exactly how
		// the paper's metasearcher reads real answer pages.
		dbs = append(dbs, metaprobe.NewHTTPDatabase(spec.Name, url))
	}

	// The remote databases do not export statistics: build content
	// summaries by query-based sampling through the search interface.
	fmt.Fprintln(w, "\nsampling content summaries through the search interfaces...")
	sums, err := metaprobe.SampleSummaries(dbs,
		[]string{"cancer", "heart", "child", "health", "report"}, 60, 11)
	if err != nil {
		return err
	}
	for i, s := range sums {
		fmt.Fprintf(w, "  %-10s: sampled %d docs, %d distinct terms, size estimate %d\n",
			s.Database, s.DocCount, len(s.DF), s.Size)
		_ = i
	}

	ms, err := metaprobe.New(dbs, sums, nil)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\ntraining the error model over the wire...")
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return err
	}
	pool, err := gen.Pool(stats.NewRNG(3), 120, 120)
	if err != nil {
		return err
	}
	train := make([]string, len(pool))
	for i, q := range pool {
		train[i] = q.String()
	}
	if err := ms.Train(train); err != nil {
		return err
	}

	for _, query := range []string{"breast cancer", "heart attack", "child asthma"} {
		res, err := ms.SelectWithCertainty(query, 1, metaprobe.Absolute, 0.9, -1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%-14q → %v (certainty %.2f, %d live probes)\n",
			query, res.Databases, res.Certainty, res.Probes)
		items, _, err := ms.Metasearch(query, 2, metaprobe.Partial, 0.8, 3)
		if err != nil {
			return err
		}
		for i, it := range items {
			fmt.Fprintf(w, "  %d. [%s] %s\n", i+1, it.Database, it.Doc.ID)
		}
	}
	return nil
}
