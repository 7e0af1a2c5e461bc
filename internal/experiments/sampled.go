package experiments

import (
	"fmt"

	"metaprobe/internal/core"
	"metaprobe/internal/eval"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// sampledSummariesStudy (E-SAMP) replays Figure 15 in the realistic
// deployment setting the paper's reference [8] addresses: the
// metasearcher cannot read the databases' indexes, so content
// summaries come from *query-based sampling* through the public search
// interface. Sampled summaries are incomplete and biased; the question
// is how much selection quality survives — and how much of the loss
// the error model recovers (its zero-estimate band explicitly learns
// "this estimate said nothing matches, but things did").
func sampledSummariesStudy(cfg Config, probesPerDB int) (*Table, error) {
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	if probesPerDB <= 0 {
		probesPerDB = 80
	}

	// Sample every database through its search interface only.
	seedTerms := []string{"health", "cancer", "heart", "report", "child", "diet", "drug", "study"}
	sampled := &summary.Set{Summaries: make([]*summary.Summary, env.Testbed.Len())}
	rng := stats.NewRNG(cfg.Seed).Fork(555)
	for i := 0; i < env.Testbed.Len(); i++ {
		s, err := summary.Sample(env.Testbed.DB(i), summary.SampleConfig{
			SeedTerms:  seedTerms,
			NumQueries: probesPerDB,
		}, rng.Fork(int64(i)))
		if err != nil {
			return nil, fmt.Errorf("experiments: sampling %s: %w", env.Testbed.DB(i).Name(), err)
		}
		sampled.Summaries[i] = s
	}

	// Train a second model on the sampled summaries (the error model
	// now corrects sampling bias *and* correlation bias).
	sampledModel, err := core.Train(env.Testbed, sampled, env.Rel, env.train, cfg.model)
	if err != nil {
		return nil, err
	}

	table := &Table{
		ID:      "ESAMP",
		title:   "E-SAMP: exact vs query-sampled content summaries (k=1)",
		columns: []string{"summaries", "method", "Avg(Cor_a)"},
		notes: []string{
			fmt.Sprintf("sampling: %d probe queries per database, %d seed terms, documents fetched through the search interface", probesPerDB, len(seedTerms)),
		},
	}
	score := func(model *core.Model, sums *summary.Set, baseline bool) (eval.MethodScore, error) {
		if baseline {
			return scoreEstimates(env, sums, 1)
		}
		return scoreRDSelection(env, model, 1)
	}

	for _, row := range []struct {
		label    string
		model    *core.Model
		sums     *summary.Set
		baseline bool
	}{
		{"exact", env.Version.Model, env.Summaries, true},
		{"exact", env.Version.Model, env.Summaries, false},
		{"sampled", sampledModel, sampled, true},
		{"sampled", sampledModel, sampled, false},
	} {
		v, err := score(row.model, row.sums, row.baseline)
		if err != nil {
			return nil, err
		}
		method := "RD-based"
		if row.baseline {
			method = "term-independence"
		}
		table.addRow(row.label, method, f3(v.AvgCorA))
	}
	return table, nil
}
