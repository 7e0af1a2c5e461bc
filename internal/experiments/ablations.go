package experiments

import (
	"fmt"

	"metaprobe/internal/core"
	"metaprobe/internal/stats"
)

// ablationPolicies (A1) compares probe policies: for a fixed certainty
// threshold, the average number of probes each policy spends and the
// realized correctness. The greedy policy should dominate the naive
// baselines; the exact optimal policy is run on a truncated testbed
// (its cost is factorial, Section 5.3).
func ablationPolicies(env *Env, t float64, k int) (*Table, error) {
	table := &Table{
		ID:      "A1",
		title:   fmt.Sprintf("Ablation A1: probe policies (t=%.2f, k=%d, %s metric)", t, k, core.Absolute),
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
	outs, err := env.apro(core.Absolute, k, policy, t, -1)
	if err != nil {
		return nil, err
	}
	s := env.score(outs, k)
	return []string{policy(0).Name(), f2(s.probes), f3(s.corA), f3(s.corP), f3(s.reached)}, nil
}

// ablationOptimalPolicy (A1b) compares the greedy policy against the
// exact expectimin-optimal policy (Section 5.3: cost O(n!), so the
// testbed is truncated to a handful of databases). The shape to
// observe: greedy spends nearly as few probes as optimal at a tiny
// fraction of the computational cost.
func ablationOptimalPolicy(base Config, numDBs int, t float64) (*Table, error) {
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
		title:   fmt.Sprintf("Ablation A1b: greedy vs. exact optimal probing (%d databases, t=%.2f, k=1)", numDBs, t),
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

// ablationTypeThreshold (A2) re-trains the model with different
// query-type split thresholds θ (Section 4.1 studied this choice) and
// reports RD-based selection quality for each.
func ablationTypeThreshold(env *Env, thresholds []float64, k int) (*Table, error) {
	table := &Table{
		ID:      "A2",
		title:   fmt.Sprintf("Ablation A2: query-type threshold θ (RD-based, k=%d)", k),
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

// ablationEDBins (A3) varies the histogram resolution and the bin
// representative (per-bin mean vs midpoint).
func ablationEDBins(env *Env, k int) (*Table, error) {
	table := &Table{
		ID:      "A3",
		title:   fmt.Sprintf("Ablation A3: ED binning (RD-based, k=%d)", k),
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

// ablationTrainingSize (A4) trains on nested prefixes of the training
// set, the end-to-end counterpart of the Figure 7/8 sampling study.
func ablationTrainingSize(env *Env, sizes []int, k int) (*Table, error) {
	table := &Table{
		ID:      "A4",
		title:   fmt.Sprintf("Ablation A4: training-set size (RD-based, k=%d)", k),
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

// ablationProbeCosts (A5) assigns synthetic per-database probe costs
// (large databases cost more, as real ones do) and compares the
// cost-aware greedy against the cost-blind one on total probing cost.
func ablationProbeCosts(env *Env, t float64, k int) (*Table, error) {
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
		title:   fmt.Sprintf("Ablation A5: non-uniform probe costs (t=%.2f, k=%d)", t, k),
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
		outs, err := env.apro(core.Absolute, k, shared(c.policy), t, -1)
		if err != nil {
			return nil, err
		}
		var cost float64
		for _, out := range outs {
			var spent float64
			for _, st := range out.Steps {
				if st.Err == nil {
					spent += costs[st.DB]
				}
			}
			cost += spent
		}
		s := env.score(outs, k)
		table.addRow(c.label, f2(s.probes), f2(cost/float64(len(outs))), f3(s.corA))
	}
	return table, nil
}
