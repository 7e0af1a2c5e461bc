package experiments

import (
	"fmt"

	"metaprobe/internal/core"
	"metaprobe/internal/summary"
)

// PrunedSummariesStudy (E-PRUNE) measures the cost of bounding summary
// storage: a metasearcher mediating hundreds of thousands of sources
// cannot keep every source's full vocabulary, so summaries keep only
// their top-N terms. For each budget, the model is retrained on the
// pruned summaries and RD-based selection is scored (k=1). The error
// model partially compensates for the terms the estimator can no
// longer see (they fall into the learned zero-estimate band).
func PrunedSummariesStudy(env *Env, budgets []int) (*Table, error) {
	if len(budgets) == 0 {
		budgets = []int{100, 250, 500, 1000, 0}
	}
	table := &Table{
		ID:      "EPRUNE",
		Title:   "E-PRUNE: selection quality vs summary term budget (RD-based, k=1)",
		columns: []string{"terms per summary", "baseline Cor_a", "RD-based Cor_a", "avg stored terms"},
		notes: []string{
			"budget 'full' keeps the entire vocabulary (the Figure 15 setting)",
		},
	}
	for _, budget := range budgets {
		pruned := &summary.Set{Summaries: make([]*summary.Summary, len(env.Summaries.Summaries))}
		var stored int
		for i, s := range env.Summaries.Summaries {
			pruned.Summaries[i] = s.Prune(budget)
			stored += len(pruned.Summaries[i].DF)
		}
		model, err := core.Train(env.Testbed, pruned, env.Rel, env.train, env.cfg.model)
		if err != nil {
			return nil, err
		}
		baseScore, err := scoreEstimates(env, pruned, 1)
		if err != nil {
			return nil, err
		}
		rdScore, err := scoreRDSelection(env, model, 1)
		if err != nil {
			return nil, err
		}
		label := "full"
		if budget > 0 {
			label = fmt.Sprintf("%d", budget)
		}
		table.addRow(label, f3(baseScore.AvgCorA), f3(rdScore.AvgCorA),
			fmt.Sprintf("%d", stored/len(pruned.Summaries)))
	}
	return table, nil
}
