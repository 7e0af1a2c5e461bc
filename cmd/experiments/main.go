// Command experiments regenerates every table and figure of the
// paper's evaluation and the ablations and extensions beside it, one
// per id of experiments.Registry (DESIGN.md's experiment index says
// what each shows).
//
// Usage:
//
//	go run ./cmd/experiments [-run all|<id>,<id>,...] [-scale 0.05]
//	    [-train 1000] [-test 1000] [-out results]
//
// Tables are printed to stdout and, with -out, also written as .txt
// and .csv files. An id the registry does not list is a usage error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"metaprobe/internal/experiments"
)

func main() {
	var ids []string
	known := map[string]bool{"ALL": true}
	for _, e := range experiments.Registry {
		for _, id := range e.IDs {
			ids = append(ids, id)
			known[strings.ToUpper(id)] = true
		}
	}
	runList := flag.String("run", "all", "comma-separated table ids ("+strings.Join(ids, ",")+") or 'all'")
	scale := flag.Float64("scale", 0.05, "health-testbed size multiplier")
	trainN := flag.Int("train", 1000, "training queries per term-count (2-term and 3-term)")
	testN := flag.Int("test", 1000, "test queries per term-count")
	seed := flag.Int64("seed", 2004, "random seed")
	outDir := flag.String("out", "", "directory to write .txt/.csv tables (optional)")
	samplingScale := flag.Float64("sampling-scale", 0.2, "newsgroup-testbed size multiplier for F7/F8")
	samplingPool := flag.Int("sampling-pool", 50000, "query-pool size for F7/F8")
	samplingKS := flag.Bool("sampling-ks", false, "use the Kolmogorov-Smirnov statistic for F7/F8 instead of chi-square")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToUpper(*runList), ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			fmt.Fprintf(os.Stderr, "experiments: -run: unknown table id %q\n", id)
			flag.Usage()
			os.Exit(2)
		}
		want[id] = true
	}
	wanted := func(id string) bool { return want["ALL"] || want[strings.ToUpper(id)] }

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Train2, cfg.Train3 = *trainN, *trainN
	cfg.Test2, cfg.Test3 = *testN, *testN
	scfg := experiments.DefaultSamplingConfig()
	scfg.Scale = *samplingScale
	scfg.PoolSize = *samplingPool
	scfg.UseKS = *samplingKS

	var env *experiments.Env
	var tables []*experiments.Table
	for _, e := range experiments.Registry {
		if !slices.ContainsFunc(e.IDs, wanted) {
			continue
		}
		if e.NeedsEnv && env == nil {
			step(fmt.Sprintf("building testbed + training (%d train, %d test queries)",
				cfg.Train2+cfg.Train3, cfg.Test2+cfg.Test3), func() (err error) {
				env, err = experiments.Setup(cfg)
				return err
			})
		}
		step(e.Step, func() error {
			ts, err := e.Run(cfg, scfg, env)
			for _, t := range ts {
				if wanted(t.ID) {
					fmt.Printf("\n%s\n", t)
					tables = append(tables, t)
				}
			}
			return err
		})
	}
	writeOut(*outDir, tables)
}

// step runs one stage with progress and timing on stderr.
func step(name string, f func() error) {
	fmt.Fprintf(os.Stderr, "[%s] %s...\n", time.Now().Format("15:04:05"), name)
	start := time.Now()
	if err := f(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(os.Stderr, "[%s] %s done in %v\n", time.Now().Format("15:04:05"), name, time.Since(start).Round(time.Millisecond))
}

// writeOut persists the tables when -out is set.
func writeOut(dir string, tables []*experiments.Table) {
	if dir == "" || len(tables) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, t := range tables {
		base := filepath.Join(dir, strings.ToLower(t.ID))
		if err := os.WriteFile(base+".txt", []byte(t.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(base+".csv", []byte(t.CSV()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d tables to %s\n", len(tables), dir)
}
