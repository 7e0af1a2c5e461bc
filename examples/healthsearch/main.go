// Command healthsearch recreates the paper's evaluation scenario as an
// interactive tool: a metasearcher mediating 20 health-related
// databases (Figure 14), trained on a synthetic query log, answering
// ad-hoc queries with all three selection tiers side by side.
//
// Usage:
//
//	go run ./examples/healthsearch [-k 3] [-t 0.9] [-scale 0.02] [query terms...]
//
// Without query arguments it runs a demonstration batch.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"metaprobe"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

var (
	k     = flag.Int("k", 3, "number of databases to select")
	t     = flag.Float64("t", 0.9, "user-required certainty level")
	scale = flag.Float64("scale", 0.02, "testbed size multiplier")
	seed  = flag.Int64("seed", 2004, "random seed")
	train = flag.Int("train", 400, "training queries per term-count")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to w, for the flags' values and the
// query in the arguments (the demonstration batch without one).
func run(w io.Writer) error {
	fmt.Fprintf(w, "building the 20-database health testbed (scale %g)...\n", *scale)
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(*scale), *seed)
	if err != nil {
		return err
	}
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}
	sums, err := metaprobe.ExactSummaries(dbs)
	if err != nil {
		return err
	}
	ms, err := metaprobe.New(dbs, sums, nil)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "training the error model on %d queries...\n", 2**train)
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return err
	}
	pool, err := gen.Pool(stats.NewRNG(*seed).Fork(1), *train, *train)
	if err != nil {
		return err
	}
	trainStrs := make([]string, len(pool))
	for i, q := range pool {
		trainStrs[i] = q.String()
	}
	if err := ms.Train(trainStrs); err != nil {
		return err
	}

	var batch []string
	if flag.NArg() > 0 {
		batch = []string{strings.Join(flag.Args(), " ")}
	} else {
		batch = []string{
			"breast cancer", "heart attack", "blood pressure",
			"clinical trial", "weight loss", "bone marrow transplant",
		}
	}
	for _, query := range batch {
		if err := answer(w, ms, query, *k, *t); err != nil {
			return err
		}
	}
	return nil
}

// answer writes the three selection tiers for one query to w.
func answer(w io.Writer, ms *metaprobe.Metasearcher, query string, k int, t float64) error {
	fmt.Fprintf(w, "\n=== %q (k=%d, t=%.2f) ===\n", query, k, t)
	fmt.Fprintf(w, "  baseline:  %v\n", ms.SelectBaseline(query, k))

	set, certainty, err := ms.Select(query, k, metaprobe.Absolute)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  RD-based:  %v (certainty %.3f)\n", set, certainty)

	res, err := ms.SelectWithCertainty(query, k, metaprobe.Absolute, t, -1)
	if err != nil {
		return err
	}
	status := "reached"
	if !res.Reached {
		status = "NOT reached"
	}
	fmt.Fprintf(w, "  APro:      %v (certainty %.3f, %d probes, %s)\n",
		res.Databases, res.Certainty, res.Probes, status)

	items, _, err := ms.Metasearch(query, k, metaprobe.Partial, t, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  top fused results:")
	for i, it := range items {
		fmt.Fprintf(w, "    %d. [%s] %s (%.3f)\n", i+1, it.Database, it.Doc.ID, it.Score)
	}
	return nil
}
