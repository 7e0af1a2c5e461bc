// Command persistence demonstrates the train-once / reload workflow
// and online refinement: a metasearcher is trained and saved to disk,
// a second process-like instance reloads it without re-training, and
// live probes keep refining the error model during operation.
//
// Run it with:
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

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

// run writes the example's output to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "metaprobe-example")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.json")

	// --- Session 1: build, train, save. ---
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(0.01), 2004)
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
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return err
	}
	pool, err := gen.Pool(stats.NewRNG(1), 200, 200)
	if err != nil {
		return err
	}
	train := make([]string, len(pool))
	for i, q := range pool {
		train[i] = q.String()
	}
	fmt.Fprintf(w, "session 1: training on %d queries and saving the model...\n", len(train))
	if err := ms.Train(train); err != nil {
		return err
	}
	if err := ms.SaveModel(modelPath); err != nil {
		return err
	}
	info, _ := os.Stat(modelPath)
	fmt.Fprintf(w, "session 1: model saved (%d KiB)\n\n", info.Size()/1024)

	// --- Session 2: reload without training, refine online. ---
	fmt.Fprintln(w, "session 2: reloading the model (no training)...")
	ms2, err := metaprobe.NewFromModel(dbs, modelPath, &metaprobe.Config{
		OnlineRefinement: true, // every live probe refines the EDs
	})
	if err != nil {
		return err
	}
	for _, query := range []string{"breast cancer", "blood pressure", "weight loss"} {
		res, err := ms2.SelectWithCertainty(query, 2, metaprobe.Absolute, 0.9, -1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16q → %v (certainty %.2f, %d probes fed back into the model)\n",
			query, res.Databases, res.Certainty, res.Probes)
	}
	fmt.Fprintln(w, "\nthe probes above doubled as training observations: the reloaded")
	fmt.Fprintln(w, "model keeps learning while it serves (Section 8's future work).")
	return nil
}
