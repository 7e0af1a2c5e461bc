// Command experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md for the experiment index):
//
//	F7/F8  sampling-size goodness study (Section 4.2)
//	F9     per-query-type error distributions (Figure 9)
//	F14    database inventory (Figure 14)
//	F15    RD-based selection vs. baseline (Figure 15)
//	F16    correctness vs. number of probes (Figure 16)
//	F17    probes vs. certainty threshold (Figure 17)
//	A1–A5  ablations (probe policies, type threshold, ED bins,
//	       training size, probe costs)
//	EWORK  what the greedy probe loop computes (RankWork counts)
//
// Usage:
//
//	go run ./cmd/experiments [-run all|F15,F16,...] [-scale 0.05]
//	    [-train 1000] [-test 1000] [-probes 10] [-out results]
//
// Tables are printed to stdout and, with -out, also written as .txt
// and .csv files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"metaprobe/internal/experiments"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiment ids (F7,F8,F9,F14,F15,F16,F17,A1,A1B,A2,A3,A4,A5,ESIM,EBASE,ECAL,EDRIFT,EFUSE,ESAMP,EPRUNE,EWORK) or 'all'")
	scale := flag.Float64("scale", 0.05, "health-testbed size multiplier")
	trainN := flag.Int("train", 1000, "training queries per term-count (2-term and 3-term)")
	testN := flag.Int("test", 1000, "test queries per term-count")
	probes := flag.Int("probes", 10, "max probes for Figure 16")
	seed := flag.Int64("seed", 2004, "random seed")
	outDir := flag.String("out", "", "directory to write .txt/.csv tables (optional)")
	samplingScale := flag.Float64("sampling-scale", 0.2, "newsgroup-testbed size multiplier for F7/F8")
	samplingPool := flag.Int("sampling-pool", 50000, "query-pool size for F7/F8")
	samplingKS := flag.Bool("sampling-ks", false, "use the Kolmogorov-Smirnov statistic for F7/F8 instead of chi-square")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(strings.ToUpper(*runList), ",") {
		want[strings.TrimSpace(id)] = true
	}
	wanted := func(id string) bool { return want["ALL"] || want[id] }

	var tables []*experiments.Table
	emit := func(t *experiments.Table) {
		fmt.Printf("\n%s\n", t)
		tables = append(tables, t)
	}

	// F7/F8 use their own newsgroup testbed.
	if wanted("F7") || wanted("F8") {
		cfg := experiments.DefaultSamplingConfig()
		cfg.Scale = *samplingScale
		cfg.PoolSize = *samplingPool
		cfg.UseKS = *samplingKS
		step("sampling-size study (F7/F8)", func() error {
			perDB, avg, err := experiments.SamplingStudy(cfg)
			if err != nil {
				return err
			}
			if wanted("F7") {
				emit(perDB)
			}
			if wanted("F8") {
				emit(avg)
			}
			return nil
		})
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Scale = *scale
	cfg.Train2, cfg.Train3 = *trainN, *trainN
	cfg.Test2, cfg.Test3 = *testN, *testN

	// A1b builds its own truncated testbed; E-SIM its own
	// similarity-trained one.
	if wanted("A1B") {
		step("Ablation A1b (optimal policy, truncated testbed)", func() error {
			t, err := experiments.AblationOptimalPolicy(cfg, 5, 0.85)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("ESIM") {
		step("E-SIM (document-similarity relevancy)", func() error {
			simCfg := experiments.SimilarityVariant(cfg)
			env, err := experiments.Setup(simCfg)
			if err != nil {
				return err
			}
			t, err := experiments.Figure15(env, []int{1, 3})
			if err != nil {
				return err
			}
			t.ID = "ESIM"
			t.Title = "E-SIM: Figure 15 under the document-similarity relevancy definition"
			emit(t)
			return nil
		})
	}

	needEnv := false
	for _, id := range []string{"F9", "F14", "F15", "F16", "F17", "A1", "A2", "A3", "A4", "A5", "EBASE", "ECAL", "EDRIFT", "EFUSE", "ESAMP", "EPRUNE", "EWORK"} {
		if wanted(id) {
			needEnv = true
		}
	}
	if !needEnv {
		writeOut(*outDir, tables)
		return
	}

	var env *experiments.Env
	step(fmt.Sprintf("building testbed + training (%d train, %d test queries)",
		cfg.Train2+cfg.Train3, cfg.Test2+cfg.Test3), func() error {
		var err error
		env, err = experiments.Setup(cfg)
		return err
	})

	if wanted("F14") {
		emit(experiments.Figure14(env))
	}
	if wanted("F9") {
		step("Figure 9", func() error {
			t, err := experiments.Figure9(env, "OncoLink")
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("F15") {
		step("Figure 15", func() error {
			t, err := experiments.Figure15(env, []int{1, 3})
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("F16") {
		step("Figure 16", func() error {
			t, err := experiments.Figure16(env, *probes)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("F17") {
		step("Figure 17", func() error {
			t, err := experiments.Figure17(env, nil)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("A1") {
		step("Ablation A1", func() error {
			t, err := experiments.AblationPolicies(env, 0.8, 1)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("A2") {
		step("Ablation A2", func() error {
			t, err := experiments.AblationTypeThreshold(env, []float64{10, 50, 100, 500}, 1)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("A3") {
		step("Ablation A3", func() error {
			t, err := experiments.AblationEDBins(env, 1)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("A4") {
		step("Ablation A4", func() error {
			t, err := experiments.AblationTrainingSize(env, []int{100, 250, 500, 1000, 2000}, 1)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("EPRUNE") {
		step("E-PRUNE (summary term budgets)", func() error {
			t, err := experiments.PrunedSummariesStudy(env, nil)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("ESAMP") {
		step("E-SAMP (query-sampled summaries)", func() error {
			t, err := experiments.SampledSummariesStudy(cfg, 80)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("EFUSE") {
		step("E-FUSE (result-fusion quality)", func() error {
			t, err := experiments.FusionStudy(env, 3, 10)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("ECAL") {
		step("E-CAL (certainty calibration)", func() error {
			t, err := experiments.CalibrationStudy(env, 1, 5)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("EDRIFT") {
		step("E-DRIFT (online refinement under drift)", func() error {
			t, err := experiments.DriftStudy(cfg, "CNNHealthNews", 8, 1000)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("EBASE") {
		step("E-BASE (selector comparison incl. CORI)", func() error {
			t, err := experiments.BaselineComparison(env, []int{1, 3})
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("EWORK") {
		step("E-WORK (engine work counts)", func() error {
			t, err := experiments.WorkStudy(env, []int{1, 3}, 0.9)
			if err == nil {
				emit(t)
			}
			return err
		})
	}
	if wanted("A5") {
		step("Ablation A5", func() error {
			t, err := experiments.AblationProbeCosts(env, 0.8, 1)
			if err == nil {
				emit(t)
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
