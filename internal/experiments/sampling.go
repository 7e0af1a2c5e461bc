package experiments

import (
	"fmt"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// SamplingConfig sizes the Section 4.2 sampling-size study (Figures 7
// and 8): 20 newsgroup-like databases, a large pool of 2-term queries
// of one type per database, an ideal ED from the whole pool, and
// chi-square comparisons of sampled EDs against it.
type SamplingConfig struct {
	// seed drives all randomness.
	seed int64
	// Scale multiplies newsgroup collection sizes (paper: 1840–28910
	// articles).
	Scale float64
	// PoolSize is the number of 2-term pool queries (the paper's
	// Q_total per type held 150k–600k; the goodness statistics
	// stabilize far earlier).
	PoolSize int
	// Sizes are the sampling sizes S to test (paper: 100, 200, 500,
	// 1000, 2000).
	Sizes []int
	// Reps is the number of repetitions per size (paper: 10).
	Reps int
	// band selects the query type studied; the paper focuses on
	// "2-term queries with r̂ ≥ threshold" (BandHigh).
	band core.EstimateBand
	// Threshold is the r̂ split; it must be scaled along with the
	// databases (the paper's 100 assumed full-size collections).
	Threshold float64
	// ShowDBs limits Figure 7's per-database rows (0 = all).
	ShowDBs int
	// UseKS replaces the paper's Pearson chi-square goodness with the
	// binning-free two-sample Kolmogorov-Smirnov p-value — a
	// cross-check that the conclusion does not hinge on the binning.
	UseKS bool
}

// DefaultSamplingConfig returns the study configuration used by
// cmd/experiments.
func DefaultSamplingConfig() SamplingConfig {
	return SamplingConfig{
		seed:      42,
		Scale:     0.2,
		PoolSize:  50000,
		Sizes:     []int{100, 200, 500, 1000, 2000},
		Reps:      10,
		band:      core.BandHigh,
		Threshold: 20,
		ShowDBs:   3,
	}
}

// SmallSamplingConfig is a fast configuration for tests.
func SmallSamplingConfig() SamplingConfig {
	cfg := DefaultSamplingConfig()
	cfg.Scale = 0.05
	cfg.PoolSize = 2000
	cfg.Sizes = []int{50, 100, 200}
	cfg.Reps = 4
	cfg.Threshold = 5
	return cfg
}

// SamplingStudy runs the Figure 7 / Figure 8 experiment and returns
// both tables: per-database goodness curves and the 20-database
// average.
func SamplingStudy(cfg SamplingConfig) (perDB, avg *Table, err error) {
	if cfg.PoolSize <= 0 || cfg.Reps <= 0 || len(cfg.Sizes) == 0 {
		return nil, nil, fmt.Errorf("experiments: invalid sampling config %+v", cfg)
	}
	world := corpus.NewsgroupWorld(cfg.seed)
	specs := corpus.NewsgroupTestbed(world, cfg.Scale)
	tb, err := hidden.BuildTestbed(world, specs, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	sums, err := summary.BuildExact(tb)
	if err != nil {
		return nil, nil, err
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return nil, nil, err
	}
	pool, err := gen.Pool(stats.NewRNG(cfg.seed).Fork(7), cfg.PoolSize, 0)
	if err != nil {
		return nil, nil, err
	}
	rel := estimate.NewDocFrequency()
	classifier := core.Classifier{Threshold: cfg.Threshold, MaxTerms: 4}

	perDB = &Table{
		ID:      "F7",
		Title:   "Figure 7: average goodness of sampling sizes, per database",
		columns: append([]string{"database", "|Q_total|"}, sizeCols(cfg.Sizes)...),
		notes: []string{
			fmt.Sprintf("goodness = %s p-value of ED_S vs ED_total; acceptance line 0.05; query type: 2-term, %s band (threshold %g)",
				statisticName(cfg.UseKS), cfg.band, cfg.Threshold),
		},
	}
	avg = &Table{
		ID:      "F8",
		Title:   "Figure 8: average goodness of sampling sizes over all databases",
		columns: append([]string{"metric"}, sizeCols(cfg.Sizes)...),
	}

	// dbRow is one database's pool size and, per sampling size, its mean
	// goodness; ok is false where the pool is too small to sample.
	type dbRow struct {
		name     string
		pool     int
		goodness []float64
		ok       []bool
	}
	rows, err := eval.Parallel(tb.Len(), func(dbIdx int) (dbRow, error) {
		sum := sums.Summaries[dbIdx]

		// Q_total for this database: pool queries of the studied type.
		var errs []float64
		for _, q := range pool {
			qs := q.String()
			rhat := rel.Estimate(sum, qs)
			key := classifier.Classify(q.NumTerms(), rhat)
			if key.Band != cfg.band {
				continue
			}
			actual, err := rel.Probe(tb.DB(dbIdx), qs)
			if err != nil {
				return dbRow{}, err
			}
			errs = append(errs, (actual-rhat)/rhat)
		}
		ideal := newStudyED()
		for _, e := range errs {
			ideal.Hist.Add(e)
		}
		rng := stats.NewRNG(cfg.seed).Fork(int64(1000 + dbIdx))
		row := dbRow{
			name:     tb.DB(dbIdx).Name(),
			pool:     len(errs),
			goodness: make([]float64, len(cfg.Sizes)),
			ok:       make([]bool, len(cfg.Sizes)),
		}
		for si, s := range cfg.Sizes {
			if 2*s > len(errs) {
				// A sample of most of the pool trivially matches the
				// ideal ED; require the pool to be at least twice the
				// sampling size, else report n/a.
				continue
			}
			total := 0.0
			for rep := 0; rep < cfg.Reps; rep++ {
				idx := stats.SampleWithoutReplacement(rng, len(errs), s)
				if cfg.UseKS {
					sampleErrs := make([]float64, len(idx))
					for si2, i := range idx {
						sampleErrs[si2] = errs[i]
					}
					res, err := stats.KolmogorovSmirnov(sampleErrs, errs)
					if err != nil {
						return dbRow{}, err
					}
					total += res.PValue
					continue
				}
				sample := newStudyED()
				for _, i := range idx {
					sample.Hist.Add(errs[i])
				}
				res, err := sample.Compare(ideal, 0)
				if err != nil {
					return dbRow{}, err
				}
				total += res.PValue
			}
			row.goodness[si] = total / float64(cfg.Reps)
			row.ok[si] = true
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}

	show := cfg.ShowDBs
	if show <= 0 || show > len(rows) {
		show = len(rows)
	}
	sumGoodness := make([]float64, len(cfg.Sizes))
	counted := make([]int, len(cfg.Sizes))
	for di, r := range rows {
		cells := []string{r.name, fmt.Sprintf("%d", r.pool)}
		for si := range cfg.Sizes {
			if !r.ok[si] {
				cells = append(cells, "n/a")
				continue
			}
			cells = append(cells, f3(r.goodness[si]))
			sumGoodness[si] += r.goodness[si]
			counted[si]++
		}
		if di < show {
			perDB.addRow(cells...)
		}
	}
	avgRow := []string{"avg goodness"}
	for si := range cfg.Sizes {
		if counted[si] > 0 {
			avgRow = append(avgRow, f3(sumGoodness[si]/float64(counted[si])))
		} else {
			avgRow = append(avgRow, "n/a")
		}
	}
	avg.rows = append(avg.rows, avgRow)
	avg.notes = append(avg.notes,
		fmt.Sprintf("averaged over %d databases with sufficient pools; statistical-test bottom line 0.05", tb.Len()))
	return perDB, avg, nil
}

// newStudyED builds the 10-bin relative-error histogram the paper's
// chi-square setup uses ("10 bins and degree of freedom as 9").
func newStudyED() *core.ED {
	edges := []float64{-1, -0.8, -0.6, -0.4, -0.2, 0, 0.25, 0.5, 1.0, 2.0, 1e18}
	ed, err := core.NewED(edges, false, false)
	if err != nil {
		panic(err)
	}
	return ed
}

func statisticName(useKS bool) string {
	if useKS {
		return "two-sample Kolmogorov-Smirnov"
	}
	return "Pearson chi-square"
}

func sizeCols(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("S=%d", s)
	}
	return out
}
