package experiments

import (
	"fmt"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/stats"
)

// driftStudy (E-DRIFT) exercises the online-refinement extension
// (Section 8's future-work direction, implemented as
// core.ModelVersion.Observe): one database's content drifts after
// training — here a news site suddenly saturating with oncology
// coverage, the scenario the paper's "daily news websites that have
// constant update on health-related topics" framing invites — while
// the metasearcher's summary and error model go stale. We measure
// RD-based selection accuracy before the drift, after it, and after
// the model has absorbed live-probe observations.
func driftStudy(cfg Config, driftDB string, growth float64, refreshProbes int) (*Table, error) {
	env, err := Setup(cfg)
	if err != nil {
		return nil, err
	}
	dbIdx := env.Testbed.IndexOf(driftDB)
	if dbIdx < 0 {
		return nil, fmt.Errorf("experiments: unknown drift database %q", driftDB)
	}
	local, ok := env.Testbed.DB(dbIdx).(*hidden.Local)
	if !ok {
		return nil, fmt.Errorf("experiments: drift database %q is not local", driftDB)
	}

	table := &Table{
		ID:      "EDRIFT",
		title:   fmt.Sprintf("E-DRIFT: online refinement under content drift (%s grows %.0f%%, k=1)", driftDB, growth*100),
		columns: []string{"phase", "overall Cor_a", "affected-query Cor_a", "affected queries"},
		notes: []string{
			"summaries and estimates stay stale throughout; only the error model refreshes",
			fmt.Sprintf("refinement: %d live-probe observations on the drifted database", refreshProbes),
			"affected queries: those whose true top-1 is the drifted database after the drift",
		},
	}
	// record scores the stale/refreshed model overall and on the
	// queries the drift actually re-ranked, as ver serves it.
	ver := env.Version
	record := func(phase string, golden []eval.Golden) error {
		var overallN, overallHit, affectedN, affectedHit int
		for _, g := range golden {
			topk := g.TopK(1)
			set, _ := ver.NewSelection(g.Query.String(), g.Query.NumTerms(), core.Absolute, 1).Best()
			hit := eval.CorA(set, topk) == 1
			overallN++
			if hit {
				overallHit++
			}
			if topk[0] == dbIdx {
				affectedN++
				if hit {
					affectedHit++
				}
			}
		}
		affected := "n/a"
		if affectedN > 0 {
			affected = f3(float64(affectedHit) / float64(affectedN))
		}
		table.addRow(phase, f3(float64(overallHit)/float64(overallN)), affected, fmt.Sprintf("%d", affectedN))
		return nil
	}

	// Phase 1: before the drift.
	if err := record("before drift", env.golden); err != nil {
		return nil, err
	}

	// The drift: the database gains growth×size new documents with a
	// sharply different topic profile.
	driftSpec := corpus.DatabaseSpec{
		Name:            driftDB + "-drift",
		NumDocs:         int(float64(local.Size())*growth) + 1,
		MeanDocLen:      25,
		TopicWeights:    map[string]float64{"oncology": 6, "infectious": 2},
		ConceptAffinity: 0.5,
	}
	newDocs, err := env.world.Generate(driftSpec, stats.NewRNG(cfg.Seed).Fork(999))
	if err != nil {
		return nil, err
	}
	local.AddDocuments(newDocs)

	// Phase 2: after the drift, stale model, fresh ground truth.
	postGolden, err := eval.BuildGolden(env.Testbed, env.Rel, env.Test)
	if err != nil {
		return nil, err
	}
	if err := record("after drift (stale model)", postGolden); err != nil {
		return nil, err
	}

	// Phase 3: online refinement — live probes on the drifted database
	// feed the serving version's error model (as Config.OnlineRefinement
	// does during normal operation), and the refined model is scored as
	// the next version, with every observation's rows published.
	// Refresh queries come from the training pool.
	refreshed := 0
	for _, q := range env.train {
		if refreshed >= refreshProbes {
			break
		}
		actual, err := env.Rel.Probe(local, q.String())
		if err != nil {
			return nil, err
		}
		if _, _, err := ver.Observe(dbIdx, q.String(), q.NumTerms(), actual); err != nil {
			return nil, err
		}
		refreshed++
	}
	ver = ver.Next(ver.Model, "reload", "", time.Time{})
	if err := record("after online refinement", postGolden); err != nil {
		return nil, err
	}
	return table, nil
}
