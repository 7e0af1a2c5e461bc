package experiments

import (
	"fmt"
	"math"

	"metaprobe/internal/core"
	"metaprobe/internal/eval"
)

// CalibrationStudy (E-CAL) validates the semantic heart of the paper:
// the expected correctness returned with an answer is meant to be a
// *probability the user can rely on* ("suppose we select the top-1
// database for 100 queries each with 0.85 certainty ... for around 85
// queries we have got the correct answer", Section 3.3). We bucket the
// RD-based answers by their reported certainty and compare the bucket's
// promise with its empirical accuracy.
func CalibrationStudy(env *Env, k int, numBuckets int) (*Table, error) {
	if numBuckets <= 0 {
		numBuckets = 5
	}
	type bucket struct {
		n        int
		promised float64
		correct  float64
	}
	type answer struct{ certainty, cor float64 }
	answers, err := eval.Parallel(len(env.golden), func(qi int) (answer, error) {
		g := env.golden[qi]
		sel := env.Selection(g.Query, core.Absolute, k)
		set, certainty := sel.Best()
		return answer{certainty, eval.CorA(set, core.TopKByScore(g.Actual, k))}, nil
	})
	if err != nil {
		return nil, err
	}
	buckets := make([]bucket, numBuckets)
	for _, a := range answers {
		bi := min(int(a.certainty*float64(numBuckets)), numBuckets-1)
		buckets[bi].n++
		buckets[bi].promised += a.certainty
		buckets[bi].correct += a.cor
	}

	table := &Table{
		ID:      "ECAL",
		Title:   fmt.Sprintf("E-CAL: certainty calibration of RD-based selection (k=%d, no probing)", k),
		columns: []string{"certainty bucket", "queries", "mean promised", "empirical Cor_a", "gap"},
		notes: []string{
			"well-calibrated certainty: empirical accuracy ≈ mean promised certainty per bucket",
		},
	}
	var worstGap float64
	for bi, b := range buckets {
		lo := float64(bi) / float64(numBuckets)
		hi := float64(bi+1) / float64(numBuckets)
		label := fmt.Sprintf("[%.2f, %.2f)", lo, hi)
		if b.n == 0 {
			table.addRow(label, "0", "n/a", "n/a", "n/a")
			continue
		}
		promised := b.promised / float64(b.n)
		empirical := b.correct / float64(b.n)
		gap := empirical - promised
		if math.Abs(gap) > math.Abs(worstGap) && b.n >= 20 {
			worstGap = gap
		}
		table.addRow(label, fmt.Sprintf("%d", b.n), f3(promised), f3(empirical), fmt.Sprintf("%+.3f", gap))
	}
	table.notes = append(table.notes, fmt.Sprintf("worst gap over buckets with ≥20 queries: %+.3f", worstGap))
	return table, nil
}
