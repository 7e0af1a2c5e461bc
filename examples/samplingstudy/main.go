// Command samplingstudy reruns the paper's Section 4.2 experiment
// (Figures 7 and 8): how many sample queries does an error
// distribution need before it reliably predicts the errors of future
// queries? It builds 20 newsgroup-like databases, derives the ideal ED
// of each from a large query pool, and chi-square-tests sampled EDs of
// increasing size against it.
//
// Usage:
//
//	go run ./examples/samplingstudy [-scale 0.1] [-pool 6000] [-reps 5]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"metaprobe/internal/experiments"
)

var (
	scale = flag.Float64("scale", 0.1, "newsgroup collection size multiplier")
	pool  = flag.Int("pool", 6000, "size of the 2-term query pool")
	reps  = flag.Int("reps", 5, "repetitions per sampling size")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the study's tables to w, for the flags' values.
func run(w io.Writer) error {
	cfg := experiments.DefaultSamplingConfig()
	cfg.Scale = *scale
	cfg.PoolSize = *pool
	cfg.Reps = *reps
	cfg.Sizes = []int{100, 200, 500, 1000, 2000}
	cfg.ShowDBs = 5
	// The paper's threshold of 100 assumed full-size collections; keep
	// the same relative split point on a scaled testbed.
	cfg.Threshold = 100 * *scale
	if cfg.Threshold < 3 {
		cfg.Threshold = 3
	}

	fmt.Fprintln(w, "running the sampling-size study (this builds 20 databases and")
	fmt.Fprintf(w, "issues %d pool queries to each)...\n\n", *pool)
	perDB, avg, err := experiments.SamplingStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, perDB)
	fmt.Fprintln(w, avg)
	fmt.Fprintln(w, "reading the tables: values are chi-square p-values (goodness);")
	fmt.Fprintln(w, "anything above 0.05 means the sampled ED is statistically")
	fmt.Fprintln(w, "indistinguishable from the ideal one — the paper's conclusion is")
	fmt.Fprintln(w, "that 100-200 sample queries per type already suffice.")
	return nil
}
