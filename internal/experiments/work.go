package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"metaprobe/internal/core"
)

// workStudy (E-WORK) counts what the engine does on the sequential path:
// for each (k, metric) it runs APro with the greedy policy to certainty t
// over every test query, in index order, through a model version
// published afresh for the row, and sums each selection's RankWork. The
// memo counts are those of that one serial pass over an empty memo. The
// hash is FNV-1a over every query's outcome — its set, the certainty
// bits before and after, and each step's database, usefulness bits and
// certainty after — so a change that must keep every decision shows as
// a change of the counts only.
func workStudy(env *Env, ks []int, t float64) (*Table, error) {
	table := &Table{
		ID:    "EWORK",
		title: fmt.Sprintf("E-WORK: what the greedy probe loop computes, sequential APro to t = %.2f over the test queries", t),
		columns: []string{"k", "metric", "queries", "probes", "swept", "skipped", "abandoned",
			"hypotheses", "sets", "sets shared", "grid reuses", "memo hits", "memo misses",
			"row builds", "live per row", "tail rebuilds", "tail deconvolutions", "outcomes hash"},
		notes: []string{
			"counts are RankWork summed over the queries in index order; a fresh model version per row, so the memo counts are one serial pass's",
			"row builds: DP rows built, by grid builds and repairs and by swapped tails; live per row: the mean live-list length at a row build; tail rebuilds and tail deconvolutions: the swapped tails of a hypothesis that rebuilt a row and that deconvolved one",
			"outcomes hash: FNV-1a over every selected set, the initial and final certainty bits, and every step's database, usefulness bits and certainty after",
		},
	}
	ctx := context.Background()
	for _, k := range ks {
		for _, metric := range []core.Metric{core.Absolute, core.Partial} {
			ver := serve(env.Version.Model)
			var work core.RankWork
			var probes int
			var out core.Outcome
			h := fnv.New64a()
			var buf [8]byte
			put := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(buf[:0], x)) }
			for _, q := range env.Test {
				sel := ver.NewSelection(q.String(), q.NumTerms(), metric, k)
				if err := core.AProContext(ctx, sel, env.probe(q.String()), core.Greedy{}, t, -1, &out); err != nil {
					return nil, fmt.Errorf("experiments: E-WORK k=%d %s %q: %w", k, metric, q.String(), err)
				}
				w := sel.Work()
				sel.Release()
				work.Swept += w.Swept
				work.Skipped += w.Skipped
				work.Abandoned += w.Abandoned
				work.Hypotheses += w.Hypotheses
				work.Sets += w.Sets
				work.SetsShared += w.SetsShared
				work.GridReuses += w.GridReuses
				work.MemoHits += w.MemoHits
				work.MemoMisses += w.MemoMisses
				work.RowBuilds += w.RowBuilds
				work.RowLive += w.RowLive
				work.TailRebuilds += w.TailRebuilds
				work.TailDeconvolutions += w.TailDeconvolutions
				probes += out.Probes()
				put(uint64(len(out.Set)))
				for _, i := range out.Set {
					put(uint64(i))
				}
				put(math.Float64bits(out.Initial))
				put(math.Float64bits(out.Certainty))
				put(uint64(len(out.Steps)))
				for _, st := range out.Steps {
					put(uint64(st.DB))
					put(math.Float64bits(st.Usefulness))
					put(math.Float64bits(st.CertaintyAfter))
				}
			}
			d := strconv.Itoa
			table.addRow(d(k), metric.String(), d(len(env.Test)), d(probes),
				d(work.Swept), d(work.Skipped), d(work.Abandoned), d(work.Hypotheses),
				d(work.Sets), d(work.SetsShared), d(work.GridReuses),
				d(work.MemoHits), d(work.MemoMisses), d(work.RowBuilds),
				fmt.Sprintf("%.2f", float64(work.RowLive)/float64(max(work.RowBuilds, 1))),
				d(work.TailRebuilds), d(work.TailDeconvolutions), fmt.Sprintf("%016x", h.Sum64()))
		}
	}
	return table, nil
}
