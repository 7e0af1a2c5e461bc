// Command benchmark is the repository's benchmark: it serves the
// trained health testbed behind the daemon's handler tree on a
// loopback listener, drives one of four workloads at it over HTTP,
// verifies every answer and prints the metrics BENCHMARK.json names.
//
//	go run -C benchmark . --workload cpu-select --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . --workload all --seed 1 --out out/runs.jsonl
//	go run -C benchmark . --compare parent.jsonl change.jsonl
//
// See README.md for the workloads, the metric glossary and how to run
// a paired comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// runRecord is one line of an --out file: a run's arguments with its
// result, the input of --compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: cpu-select, slow-probe, zipf-open, churn or all")
	seed := flag.Int64("seed", 1, "workload seed: orders the requests and draws the arrival schedule")
	seconds := flag.Float64("seconds", 20, "measuring budget; request counts scale with it")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced replay instead of the end-to-end ones")
	outPath := flag.String("out", "", "append each run's result to this file as a JSON line")
	compare := flag.Bool("compare", false, "compare two --out files: benchmark --compare PARENT CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two --out files: parent, then change"))
		}
		regressed, err := compareFiles(os.Stdout, benchmarkJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{*name}
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0}
	if err := run(os.Stdout, names, opt, benchSizing, *outPath); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run sets up once and runs the named workloads, each against a fresh
// tenant loaded from the one snapshot. The last line printed for each
// workload is its result as one JSON object.
func run(out io.Writer, names []string, opt options, sz sizing, outPath string) error {
	var todo []workload
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = append(todo, w)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	setups := sz.setups
	if opt.trace {
		setups = 1 // setup_s is an end-to-end metric; a traced run reports set-up's parts
	}
	su, err := setUp(dir, sz, setups)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# seed %d, %g s budget, trace %v\n", opt.seed, opt.seconds, opt.trace)
	for _, w := range todo {
		res, err := runWorkload(su, w, opt, sz, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if outPath != "" {
			if err := appendRecord(outPath, runRecord{Workload: w.name, Seed: opt.seed, Trace: opt.trace, Result: *res}); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
