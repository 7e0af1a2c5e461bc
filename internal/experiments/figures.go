package experiments

import (
	"fmt"
	"sort"

	"metaprobe/internal/core"
	"metaprobe/internal/eval"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// Figure14 reproduces the testbed inventory table ("Sample Web
// databases used in our experiment"): name, category, collection size
// and vocabulary size per mediated database.
func Figure14(env *Env) *Table {
	t := &Table{
		ID:      "F14",
		Title:   "Figure 14: databases mediated by the metasearcher",
		columns: []string{"database", "category", "documents", "distinct terms"},
		notes: []string{
			fmt.Sprintf("sizes scaled by %g from the paper's 300–160000 range", env.cfg.Scale),
		},
	}
	for i, spec := range env.specs {
		sum := env.Summaries.Summaries[i]
		t.addRow(spec.Name, spec.Category, fmt.Sprintf("%d", sum.Size), fmt.Sprintf("%d", len(sum.DF)))
	}
	return t
}

// Figure9 reproduces the per-type error distributions of one database
// (Figure 9's decision-tree leaves): for each query type, the number
// of training observations and the ED's bin probabilities.
func Figure9(env *Env, dbName string) (*Table, error) {
	idx := env.Testbed.IndexOf(dbName)
	if idx < 0 {
		return nil, fmt.Errorf("experiments: unknown database %q", dbName)
	}
	dm := env.Version.Model.DBs[idx]
	t := &Table{
		ID:      "F9",
		Title:   fmt.Sprintf("Figure 9: per-query-type error distributions on %s", dbName),
		columns: []string{"query type", "observations", "mean err", "P(err<-5%)", "P(|err|<=5%)", "P(err>5%)"},
		notes: []string{
			"zero-band rows report the distribution of absolute relevancy instead of relative error",
		},
	}
	keys := make([]core.TypeKey, 0, len(dm.EDs))
	for key := range dm.EDs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Terms != keys[j].Terms {
			return keys[i].Terms < keys[j].Terms
		}
		return keys[i].Band < keys[j].Band
	})
	for _, key := range keys {
		ed := dm.EDs[key]
		var lo, mid, hi, mean, mass float64
		for i := 0; i < ed.Hist.Bins(); i++ {
			p := ed.Hist.Prob(i)
			if p == 0 {
				continue
			}
			rep := ed.Hist.BinMean(i)
			mean += p * rep
			mass += p
			switch {
			case rep < -0.05:
				lo += p
			case rep <= 0.05:
				mid += p
			default:
				hi += p
			}
		}
		t.addRow(key.String(), fmt.Sprintf("%d", ed.Observations()),
			f3(mean), f3(lo), f3(mid), f3(hi))
	}
	return t, nil
}

// Figure15 reproduces the headline comparison table: the
// term-independence estimator baseline versus RD-based selection
// (no probing), reporting Avg(Cor_a) and Avg(Cor_p) for each k.
func Figure15(env *Env, ks []int) (*Table, error) {
	t := &Table{
		ID:      "F15",
		Title:   "Figure 15: RD-based database selection vs. the term-independence estimator",
		columns: []string{"method", "k", "Avg(Cor_a)", "Avg(Cor_p)"},
		notes: []string{
			fmt.Sprintf("%d test queries; paper (k=1): baseline 0.507 → RD-based 0.700 (+38.2%%)", len(env.golden)),
		},
	}
	for _, k := range ks {
		base, err := eval.Score(env.golden, k, func(q queries.Query) ([]int, int, error) {
			sel := env.Selection(q, core.Absolute, k)
			return sel.BaselineSelect(), 0, nil
		})
		if err != nil {
			return nil, err
		}
		// The RD-based method optimizes the metric it is scored on; as
		// in the paper, report the absolute-optimizing variant's CorA
		// and the partial-optimizing variant's CorP.
		rdAbs, err := eval.Score(env.golden, k, func(q queries.Query) ([]int, int, error) {
			sel := env.Selection(q, core.Absolute, k)
			set, _ := sel.Best()
			return set, 0, nil
		})
		if err != nil {
			return nil, err
		}
		rdPart, err := eval.Score(env.golden, k, func(q queries.Query) ([]int, int, error) {
			sel := env.Selection(q, core.Partial, k)
			set, _ := sel.Best()
			return set, 0, nil
		})
		if err != nil {
			return nil, err
		}
		t.addRow("term-independence (baseline)", fmt.Sprintf("%d", k), f3(base.AvgCorA), f3(base.AvgCorP))
		t.addRow("RD-based, no probing", fmt.Sprintf("%d", k), f3(rdAbs.AvgCorA), f3(rdPart.AvgCorP))

		// Paired significance: is the RD-based improvement real?
		baseHits := make([]bool, len(env.golden))
		rdHits := make([]bool, len(env.golden))
		for qi, g := range env.golden {
			topk := g.TopK(k)
			sel := env.Selection(g.Query, core.Absolute, k)
			baseHits[qi] = eval.CorA(sel.BaselineSelect(), topk) == 1
			set, _ := sel.Best()
			rdHits[qi] = eval.CorA(set, topk) == 1
		}
		mn, err := stats.McNemar(baseHits, rdHits)
		if err != nil {
			return nil, err
		}
		t.notes = append(t.notes, fmt.Sprintf(
			"k=%d McNemar: RD fixed %d baseline errors, introduced %d (p = %.2g)",
			k, mn.Discordant01, mn.Discordant10, mn.PValue))

		// Bootstrap error bars on the headline number.
		rdVals := make([]float64, len(rdHits))
		for i, h := range rdHits {
			if h {
				rdVals[i] = 1
			}
		}
		lo, hi, err := stats.BootstrapCI(rdVals, 0.95, 1000, stats.NewRNG(7))
		if err != nil {
			return nil, err
		}
		t.notes = append(t.notes, fmt.Sprintf("k=%d RD-based Cor_a 95%% CI: [%.3f, %.3f]", k, lo, hi))
	}
	return t, nil
}

// figure16Panel identifies one panel of Figure 16.
type figure16Panel struct {
	label  string
	k      int
	metric core.Metric
}

// Figure16 reproduces the probing-impact curves: average correctness
// of APro's current best answer after 0, 1, ..., maxProbes probes,
// with the flat term-independence baseline for comparison. Panels:
// (a) k=1, (b) k=3 absolute, (c) k=3 partial.
func Figure16(env *Env, maxProbes int) (*Table, error) {
	panels := []figure16Panel{
		{"(a) k=1", 1, core.Absolute},
		{"(b) k=3 absolute", 3, core.Absolute},
		{"(c) k=3 partial", 3, core.Partial},
	}
	cols := []string{"series"}
	for p := 0; p <= maxProbes; p++ {
		cols = append(cols, fmt.Sprintf("%d", p))
	}
	t := &Table{
		ID:      "F16",
		Title:   "Figure 16: average correctness vs. number of probes (greedy policy)",
		columns: cols,
		notes: []string{
			"column p = average correctness of the best set after p probes",
			"baseline rows are flat: the estimator ignores probing",
		},
	}
	for _, panel := range panels {
		curve, baseline, err := probingCurve(env, panel.k, panel.metric, maxProbes)
		if err != nil {
			return nil, err
		}
		row := []string{panel.label + " APro"}
		for _, v := range curve {
			row = append(row, f3(v))
		}
		t.rows = append(t.rows, row)
		base := []string{panel.label + " baseline"}
		for range curve {
			base = append(base, f3(baseline))
		}
		t.rows = append(t.rows, base)
	}
	return t, nil
}

// probingCurve computes, for one (k, metric) panel, the average
// correctness of the reported best set after each probe count, plus
// the flat baseline average.
func probingCurve(env *Env, k int, metric core.Metric, maxProbes int) ([]float64, float64, error) {
	cor := func(set, topk []int) float64 {
		if metric == core.Absolute {
			return eval.CorA(set, topk)
		}
		return eval.CorP(set, topk)
	}
	// answer is one query's correctness after 0…maxProbes probes and its
	// baseline's.
	type answer struct {
		curve    []float64
		baseline float64
	}
	answers, err := eval.Parallel(len(env.golden), func(qi int) (answer, error) {
		g := env.golden[qi]
		topk := core.TopKByScore(g.Actual, k)
		sel := env.Selection(g.Query, metric, k)
		baseCor := cor(sel.BaselineSelect(), topk)

		// One probe per call: each APro folds at most one and reports the
		// best set after it. None folded — certainty 1, nothing left to
		// probe, or nothing informative — and the curve is flat from here.
		curve := make([]float64, maxProbes+1)
		probe := env.probe(g.Query.String())
		set, _ := sel.Best()
		curve[0] = cor(set, topk)
		for p := 1; p <= maxProbes; p++ {
			out, err := core.APro(sel, probe, core.Greedy{}, 1, 1)
			if err == nil && out.Degraded {
				err = out.ProbeErrs[0] // the figure is over answered probes only
			}
			if err != nil {
				return answer{}, err
			}
			if len(out.Steps) == 0 {
				for ; p <= maxProbes; p++ {
					curve[p] = curve[p-1]
				}
				break
			}
			curve[p] = cor(out.Set, topk)
		}
		return answer{curve, baseCor}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	sums := make([]float64, maxProbes+1)
	var baselineSum float64
	for _, a := range answers {
		baselineSum += a.baseline
		for p := range a.curve {
			sums[p] += a.curve[p]
		}
	}
	n := float64(len(env.golden))
	for p := range sums {
		sums[p] /= n
	}
	return sums, baselineSum / n, nil
}

// Figure17 reproduces the cost-of-certainty curve: the average number
// of probes APro needs to reach each user-required threshold t.
func Figure17(env *Env, thresholds []float64) (*Table, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.70, 0.75, 0.80, 0.85, 0.90, 0.95}
	}
	cols := []string{"series"}
	for _, t := range thresholds {
		cols = append(cols, f2(t))
	}
	table := &Table{
		ID:      "F17",
		Title:   "Figure 17: average number of probes to reach the user-required certainty t",
		columns: cols,
	}
	series := []figure16Panel{
		{"k=1", 1, core.Absolute},
		{"k=3 absolute", 3, core.Absolute},
		{"k=3 partial", 3, core.Partial},
	}
	for _, s := range series {
		row := []string{s.label}
		for _, th := range thresholds {
			avg, err := avgProbesAtThreshold(env, s.k, s.metric, th)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(avg))
		}
		table.rows = append(table.rows, row)
	}
	return table, nil
}

// avgProbesAtThreshold runs APro over the test set at one threshold and
// returns the average number of successful probes.
func avgProbesAtThreshold(env *Env, k int, metric core.Metric, t float64) (float64, error) {
	probes, err := eval.Parallel(len(env.golden), func(qi int) (float64, error) {
		g := env.golden[qi]
		sel := env.Selection(g.Query, metric, k)
		out, err := core.APro(sel, env.probe(g.Query.String()), &core.Greedy{}, t, -1)
		if err != nil {
			return 0, err
		}
		return float64(out.Probes()), nil
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, p := range probes {
		total += p
	}
	return total / float64(len(env.golden)), nil
}
