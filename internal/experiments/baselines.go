package experiments

import (
	"fmt"

	"metaprobe/internal/core"
	"metaprobe/internal/estimate"
	"metaprobe/internal/eval"
	"metaprobe/internal/queries"
)

// BaselineComparison (E-BASE) widens Figure 15 with selectors from the
// wider database-selection literature: the CORI inference-network
// ranker joins the term-independence estimator, RD-based selection,
// and APro with small fixed probe budgets. The paper's claim in
// context: error-aware selection beats *both* classical summary-based
// rankers, and a probe or two closes most of the remaining gap.
func BaselineComparison(env *Env, ks []int) (*Table, error) {
	table := &Table{
		ID:      "EBASE",
		Title:   "E-BASE: selector comparison (classical rankers vs probabilistic selection)",
		columns: []string{"method", "k", "Avg(Cor_a)", "Avg(Cor_p)", "avg probes"},
		notes: []string{
			"CORI: Callan et al., SIGIR 1995, default parameters (b=0.4, k=200, b_s=0.75)",
		},
	}
	cori := estimate.NewCORI()
	for _, k := range ks {
		add := func(name string, sel eval.Selector) error {
			score, err := eval.Score(env.golden, k, sel)
			if err != nil {
				return fmt.Errorf("experiments: %s (k=%d): %w", name, k, err)
			}
			table.addRow(name, fmt.Sprintf("%d", k), f3(score.AvgCorA), f3(score.AvgCorP), f2(score.AvgProbes))
			return nil
		}

		if err := add("term-independence", func(q queries.Query) ([]int, int, error) {
			sel := env.Selection(q, core.Absolute, k)
			return sel.BaselineSelect(), 0, nil
		}); err != nil {
			return nil, err
		}
		if err := add("CORI", func(q queries.Query) ([]int, int, error) {
			scores, err := cori.Scores(env.Summaries, q.String())
			if err != nil {
				return nil, 0, err
			}
			return core.TopKByScore(scores, k), 0, nil
		}); err != nil {
			return nil, err
		}
		if err := add("RD-based", func(q queries.Query) ([]int, int, error) {
			sel := env.Selection(q, core.Absolute, k)
			set, _ := sel.Best()
			return set, 0, nil
		}); err != nil {
			return nil, err
		}
		for _, probes := range []int{1, 2} {
			budget := probes
			if err := add(fmt.Sprintf("APro (%d probes)", budget), func(q queries.Query) ([]int, int, error) {
				sel := env.Selection(q, core.Absolute, k)
				out, err := core.APro(sel, env.probe(q.String()), &core.Greedy{}, 1, budget)
				if err != nil {
					return nil, 0, err
				}
				return out.Set, out.Probes(), nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return table, nil
}
