package experiments

import (
	"fmt"
	"sort"

	"metaprobe/internal/core"
	"metaprobe/internal/eval"
	"metaprobe/internal/fusion"
)

// fusionStudy (E-FUSE) evaluates task 2 of the paper's Figure 1 —
// result fusion — which the paper describes but does not measure: after
// database selection picks k sources, how much of the *globally* best
// document set does the fused answer recover?
//
// Ground truth per query: the top-N documents by cosine score over the
// union of all databases (what querying everything would return).
// Metric: precision@N of each strategy's fused list against that
// ground truth. Strategies: APro-selected databases with weighted
// score fusion, the same with round-robin interleaving, and the single
// best-estimated database (no fusion).
func fusionStudy(env *Env, k, topN int) (*Table, error) {
	if topN <= 0 {
		topN = 10
	}
	table := &Table{
		ID:      "EFUSE",
		title:   fmt.Sprintf("E-FUSE: result-fusion quality (precision@%d vs querying all databases, k=%d)", topN, k),
		columns: []string{"strategy", "precision@N", "avg probes"},
		notes: []string{
			"ground truth: the globally top-N documents over all 20 databases",
		},
	}

	// answer is one query's precision per strategy; found is false for a
	// query nothing anywhere retrieves, which is skipped.
	type answer struct {
		found                        bool
		weighted, rr, single, probes float64
	}
	// Strategy inputs: APro-selected k databases at t=0.8.
	outs, err := env.apro(core.Partial, k, shared(&core.Greedy{}), 0.8, -1)
	if err != nil {
		return nil, err
	}
	answers, err := eval.Parallel(len(env.golden), func(qi int) (answer, error) {
		g := env.golden[qi]
		query := g.Query.String()

		// Global ground truth: best topN docs across every database.
		type scored struct {
			id    string
			score float64
		}
		var global []scored
		for i := 0; i < env.Testbed.Len(); i++ {
			res, err := env.Testbed.DB(i).Search(query, topN)
			if err != nil {
				return answer{}, err
			}
			for _, d := range res.Docs {
				global = append(global, scored{d.ID, d.Score})
			}
		}
		if len(global) == 0 {
			return answer{}, nil
		}
		sort.Slice(global, func(a, b int) bool {
			if global[a].score != global[b].score {
				return global[a].score > global[b].score
			}
			return global[a].id < global[b].id
		})
		if len(global) > topN {
			global = global[:topN]
		}
		truth := make(map[string]struct{}, len(global))
		for _, s := range global {
			truth[s.id] = struct{}{}
		}
		precision := func(items []fusion.Item) float64 {
			hits := 0
			for _, it := range items {
				if _, ok := truth[it.Doc.ID]; ok {
					hits++
				}
			}
			return float64(hits) / float64(len(truth))
		}

		out := outs[qi]
		var lists []fusion.SourceList
		for _, dbIdx := range out.Set {
			res, err := env.Testbed.DB(dbIdx).Search(query, topN)
			if err != nil {
				return answer{}, err
			}
			lists = append(lists, fusion.SourceList{
				Database: env.Testbed.DB(dbIdx).Name(),
				Weight:   float64(res.MatchCount) + 1,
				Docs:     res.Docs,
			})
		}
		weighted, err := fusion.WeightedMerge(lists, topN)
		if err != nil {
			return answer{}, err
		}
		rr, err := fusion.RoundRobin(lists, topN)
		if err != nil {
			return answer{}, err
		}

		// Single best-estimated database, no fusion.
		best := env.Selection(g.Query, core.Partial, k).BaselineSelect()[:1]
		res, err := env.Testbed.DB(best[0]).Search(query, topN)
		if err != nil {
			return answer{}, err
		}
		var single []fusion.Item
		for _, d := range res.Docs {
			single = append(single, fusion.Item{Database: env.Testbed.DB(best[0]).Name(), Doc: d})
		}
		return answer{true, precision(weighted), precision(rr), precision(single), float64(out.Probes())}, nil
	})
	if err != nil {
		return nil, err
	}
	var weighted, rr, single, probes float64
	n := 0
	for _, a := range answers {
		if a.found {
			weighted += a.weighted
			rr += a.rr
			single += a.single
			probes += a.probes
			n++
		}
	}
	for _, row := range []struct {
		name              string
		precision, probes float64
	}{
		{"selected k + weighted merge", weighted, probes},
		{"selected k + round-robin", rr, probes},
		{"single best estimate", single, 0},
	} {
		if n == 0 {
			table.addRow(row.name, "n/a", "n/a")
			continue
		}
		table.addRow(row.name, f3(row.precision/float64(n)), f2(row.probes/float64(n)))
	}
	return table, nil
}
