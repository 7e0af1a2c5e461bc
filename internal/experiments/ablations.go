package experiments

import (
	"fmt"

	"metaprobe/internal/core"
	"metaprobe/internal/eval"
	"metaprobe/internal/stats"
)

// AblationPolicies (A1) compares probe policies: for a fixed certainty
// threshold, the average number of probes each policy spends and the
// realized correctness. The greedy policy should dominate the naive
// baselines; the exact optimal policy is run on a truncated testbed
// (its cost is factorial, Section 5.3).
func AblationPolicies(env *Env, t float64, k int) (*Table, error) {
	table := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Ablation A1: probe policies (t=%.2f, k=%d, %s metric)", t, k, core.Absolute),
		columns: []string{"policy", "avg probes", "Avg(Cor_a)", "Avg(Cor_p)", "reached t"},
	}
	policies := []func(qi int) core.Policy{
		shared(core.Greedy{}),
		randomPerQuery(env.cfg.Seed, 99),
		shared(core.ByEstimate{}),
		shared(core.MaxEntropy{}),
	}
	for _, policy := range policies {
		row, err := runPolicy(env, policy, t, k)
		if err != nil {
			return nil, err
		}
		table.rows = append(table.rows, row)
	}
	return table, nil
}

// shared serves every query with the one policy p: policies hold no
// per-selection state, so the eval.Parallel workers may share it.
func shared(p core.Policy) func(qi int) core.Policy {
	return func(int) core.Policy { return p }
}

// randomPerQuery gives every query its own Random policy whose stream
// is a function of (seed, label, query index) alone. A stats.RNG is not
// safe for concurrent use, and one shared across the workers would also
// make the row depend on how they interleave.
func randomPerQuery(seed, label int64) func(qi int) core.Policy {
	base := stats.NewRNG(seed).Fork(label).Int63()
	return func(qi int) core.Policy {
		return &core.Random{RNG: stats.NewRNG(base).Fork(int64(qi))}
	}
}

// runPolicy evaluates one policy over the golden standard; policy(qi)
// is the policy for query qi.
func runPolicy(env *Env, policy func(qi int) core.Policy, t float64, k int) ([]string, error) {
	type answer struct{ probes, corA, corP, reached float64 }
	answers, err := eval.Parallel(len(env.golden), func(qi int) (answer, error) {
		g := env.golden[qi]
		sel := env.Selection(g.Query, core.Absolute, k)
		out, err := core.APro(sel, env.probe(g.Query.String()), policy(qi), t, -1)
		if err != nil {
			return answer{}, err
		}
		topk := core.TopKByScore(g.Actual, k)
		a := answer{probes: float64(out.Probes()), corA: eval.CorA(out.Set, topk), corP: eval.CorP(out.Set, topk)}
		if out.Reached {
			a.reached = 1
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	var probes, corA, corP, reached float64
	for _, a := range answers {
		probes += a.probes
		corA += a.corA
		corP += a.corP
		reached += a.reached
	}
	n := float64(len(env.golden))
	return []string{policy(0).Name(), f2(probes / n), f3(corA / n), f3(corP / n), f3(reached / n)}, nil
}

// AblationOptimalPolicy (A1b) compares the greedy policy against the
// exact expectimin-optimal policy (Section 5.3: cost O(n!), so the
// testbed is truncated to a handful of databases). The shape to
// observe: greedy spends nearly as few probes as optimal at a tiny
// fraction of the computational cost.
func AblationOptimalPolicy(base Config, numDBs int, t float64) (*Table, error) {
	if numDBs <= 0 || numDBs > 7 {
		numDBs = 5
	}
	cfg := base
	cfg.maxDatabases = numDBs
	// The optimal policy's recursion is exponential in support sizes;
	// keep the evaluation set modest.
	if cfg.Test2 > 40 {
		cfg.Test2 = 40
	}
	if cfg.Test3 > 40 {
		cfg.Test3 = 40
	}
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "A1b",
		Title:   fmt.Sprintf("Ablation A1b: greedy vs. exact optimal probing (%d databases, t=%.2f, k=1)", numDBs, t),
		columns: []string{"policy", "avg probes", "Avg(Cor_a)", "Avg(Cor_p)", "reached t"},
		notes:   []string{"the optimal policy is expectimin over probe orders and outcomes — O(n!) as the paper notes"},
	}
	policies := []func(qi int) core.Policy{
		shared(core.Greedy{}),
		shared(&core.Optimal{MaxDBs: numDBs}),
		randomPerQuery(cfg.Seed, 123),
	}
	for _, policy := range policies {
		row, err := runPolicy(env, policy, t, 1)
		if err != nil {
			return nil, err
		}
		table.rows = append(table.rows, row)
	}
	return table, nil
}

// AblationTypeThreshold (A2) re-trains the model with different
// query-type split thresholds θ (Section 4.1 studied this choice) and
// reports RD-based selection quality for each.
func AblationTypeThreshold(env *Env, thresholds []float64, k int) (*Table, error) {
	table := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Ablation A2: query-type threshold θ (RD-based, k=%d)", k),
		columns: []string{"θ", "Avg(Cor_a)", "Avg(Cor_p)"},
		notes:   []string{"the paper found θ=100 a good split on full-size collections; scaled testbeds shift the sweet spot"},
	}
	for _, th := range thresholds {
		cfg := env.cfg.model
		cfg.Classifier = core.Classifier{Threshold: th, MaxTerms: cfg.Classifier.MaxTerms}
		model, err := core.Train(env.Testbed, env.Summaries, env.Rel, env.train, cfg)
		if err != nil {
			return nil, err
		}
		score, err := scoreRDSelection(env, model, k)
		if err != nil {
			return nil, err
		}
		table.addRow(fmt.Sprintf("%g", th), f3(score.AvgCorA), f3(score.AvgCorP))
	}
	return table, nil
}

// AblationEDBins (A3) varies the histogram resolution and the bin
// representative (per-bin mean vs midpoint).
func AblationEDBins(env *Env, k int) (*Table, error) {
	table := &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("Ablation A3: ED binning (RD-based, k=%d)", k),
		columns: []string{"bins", "representative", "Avg(Cor_a)", "Avg(Cor_p)"},
	}
	coarse := []float64{-1, -0.5, 0, 0.5, 1.5, 1e18}
	standard := core.DefaultErrorEdges()
	fine := []float64{-1, -0.95, -0.9, -0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, -0.1, -0.03,
		0.03, 0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3, 4, 6, 1e18}
	cases := []struct {
		label   string
		edges   []float64
		binMean bool
	}{
		{"coarse (5)", coarse, true},
		{"default (12)", standard, true},
		{"fine (24)", fine, true},
		{"default (12)", standard, false},
	}
	for _, c := range cases {
		cfg := env.cfg.model
		cfg.ErrorEdges = c.edges
		cfg.UseBinMean = c.binMean
		model, err := core.Train(env.Testbed, env.Summaries, env.Rel, env.train, cfg)
		if err != nil {
			return nil, err
		}
		score, err := scoreRDSelection(env, model, k)
		if err != nil {
			return nil, err
		}
		rep := "bin mean"
		if !c.binMean {
			rep = "midpoint"
		}
		table.addRow(c.label, rep, f3(score.AvgCorA), f3(score.AvgCorP))
	}
	return table, nil
}

// AblationTrainingSize (A4) trains on nested prefixes of the training
// set, the end-to-end counterpart of the Figure 7/8 sampling study.
func AblationTrainingSize(env *Env, sizes []int, k int) (*Table, error) {
	table := &Table{
		ID:      "A4",
		Title:   fmt.Sprintf("Ablation A4: training-set size (RD-based, k=%d)", k),
		columns: []string{"training queries", "Avg(Cor_a)", "Avg(Cor_p)"},
	}
	for _, size := range sizes {
		if size > len(env.train) {
			size = len(env.train)
		}
		model, err := core.Train(env.Testbed, env.Summaries, env.Rel, env.train[:size], env.cfg.model)
		if err != nil {
			return nil, err
		}
		score, err := scoreRDSelection(env, model, k)
		if err != nil {
			return nil, err
		}
		table.addRow(fmt.Sprintf("%d", size), f3(score.AvgCorA), f3(score.AvgCorP))
	}
	return table, nil
}

// AblationProbeCosts (A5) assigns synthetic per-database probe costs
// (large databases cost more, as real ones do) and compares the
// cost-aware greedy against the cost-blind one on total probing cost.
func AblationProbeCosts(env *Env, t float64, k int) (*Table, error) {
	costs := make([]float64, env.Testbed.Len())
	for i := range costs {
		// Cost grows with collection size: 1 + log10(size).
		size := env.Summaries.Summaries[i].Size
		costs[i] = 1
		for s := size; s >= 10; s /= 10 {
			costs[i]++
		}
	}
	table := &Table{
		ID:      "A5",
		Title:   fmt.Sprintf("Ablation A5: non-uniform probe costs (t=%.2f, k=%d)", t, k),
		columns: []string{"policy", "avg probes", "avg cost", "Avg(Cor_a)"},
		notes:   []string{"probe cost per database: 1 + ⌊log10(size)⌋"},
	}
	for _, c := range []struct {
		label  string
		policy core.Policy
	}{
		{"greedy (cost-blind)", core.Greedy{}},
		{"greedy (cost-aware)", core.Greedy{Cost: func(i int) float64 { return costs[i] }}},
	} {
		type answer struct{ probes, cost, corA float64 }
		answers, err := eval.Parallel(len(env.golden), func(qi int) (answer, error) {
			g := env.golden[qi]
			sel := env.Selection(g.Query, core.Absolute, k)
			out, err := core.APro(sel, env.probe(g.Query.String()), c.policy, t, -1)
			if err != nil {
				return answer{}, err
			}
			a := answer{probes: float64(out.Probes()), corA: eval.CorA(out.Set, core.TopKByScore(g.Actual, k))}
			for _, s := range out.Steps {
				if s.Err == nil {
					a.cost += costs[s.DB]
				}
			}
			return a, nil
		})
		if err != nil {
			return nil, err
		}
		var probes, cost, corA float64
		for _, a := range answers {
			probes += a.probes
			cost += a.cost
			corA += a.corA
		}
		n := float64(len(env.golden))
		table.addRow(c.label, f2(probes/n), f2(cost/n), f3(corA/n))
	}
	return table, nil
}
