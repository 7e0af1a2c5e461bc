// Command quickstart is the smallest end-to-end use of metaprobe's
// public API: three tiny hand-written databases, a handful of training
// queries, then database selection with and without adaptive probing.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"metaprobe"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to w.
func run(w io.Writer) error {
	// Three "Hidden-Web databases": an oncology archive, a cardiology
	// archive, and a general health news site. In real use these would
	// be metaprobe.NewHTTPDatabase clients pointed at remote search
	// forms; here they are in-process collections.
	onco := metaprobe.NewLocalDatabase("OncoArchive", map[string]string{
		"o1": "breast cancer screening guidelines for early detection",
		"o2": "breast cancer chemotherapy and radiation therapy outcomes",
		"o3": "lung cancer biopsy procedures and staging",
		"o4": "skin cancer melanoma risk factors",
		"o5": "breast cancer survivor support programs",
		"o6": "prostate cancer screening controversy",
	})
	cardio := metaprobe.NewLocalDatabase("HeartJournal", map[string]string{
		"c1": "heart attack symptoms and emergency response",
		"c2": "blood pressure medication and hypertension control",
		"c3": "coronary artery bypass surgery recovery",
		"c4": "heart disease prevention through diet",
		"c5": "cardiac arrest survival statistics",
	})
	news := metaprobe.NewLocalDatabase("HealthDaily", map[string]string{
		"n1": "new study links diet to heart disease risk",
		"n2": "breast cancer awareness month events announced",
		"n3": "hospital funding debate continues",
		"n4": "flu vaccine available at local clinics",
	})
	dbs := []metaprobe.Database{onco, cardio, news}

	// The metasearcher keeps a content summary of each database. These
	// databases cooperate, so summaries are exact; remote sources
	// would use metaprobe.SampleSummaries.
	sums, err := metaprobe.ExactSummaries(dbs)
	if err != nil {
		return err
	}
	ms, err := metaprobe.New(dbs, sums, nil)
	if err != nil {
		return err
	}

	// Learn each database's estimation-error behaviour from a small
	// training workload (in production: your query log).
	training := []string{
		"breast cancer", "cancer screening", "heart attack",
		"blood pressure", "heart disease", "cancer therapy",
		"diet disease", "cancer awareness", "surgery recovery",
		"cancer staging", "emergency response", "disease prevention",
	}
	if err := ms.Train(training); err != nil {
		return err
	}

	query := "breast cancer"
	fmt.Fprintf(w, "query: %q\n\n", query)

	// Tier 1: the classic estimator baseline.
	fmt.Fprintln(w, "baseline (term-independence estimator):",
		ms.SelectBaseline(query, 1))

	// Tier 2: probabilistic selection, no probing.
	set, certainty, err := ms.Select(query, 1, metaprobe.Absolute)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "RD-based selection: %v (certainty %.2f)\n", set, certainty)

	// Tier 3: adaptive probing until 95% certainty.
	res, err := ms.SelectWithCertainty(query, 1, metaprobe.Absolute, 0.95, -1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "APro selection: %v (certainty %.2f after %d probes)\n\n",
		res.Databases, res.Certainty, res.Probes)

	// Full metasearch: select, forward, fuse.
	items, sel, err := ms.Metasearch(query, 2, metaprobe.Partial, 0.8, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "metasearch over %v:\n", sel.Databases)
	for i, it := range items {
		fmt.Fprintf(w, "  %d. [%s] %s (score %.3f)\n", i+1, it.Database, it.Doc.ID, it.Score)
	}
	return nil
}
