package core

// The from-scratch derivation a ModelVersion's RD table replaces, kept as
// the reference the table-lookup path is diffed against: every
// selection ModelVersion.FillSelection builds must equal, bit for bit,
// the one newSelection derives by convolving the EDs per query.

// rd derives the relevancy distribution for a new query with estimate
// rhat (Section 3.1, Example 3): each occupied bin contributes its
// probability at value r̂·(1 + e_bin) — or at the bin's absolute value
// for the zero band. Values are floored at 0 (relevancies cannot be
// negative).
func (e *ED) rd(rhat float64) (*RD, error) {
	f := e.freeze()
	return f.rd(rhat, f.reps) // in place: the snapshot is this call's own
}

// rdFor derives the relevancy distribution of database dbIdx for an
// unseen query: estimate, classify, apply the learned ED (falling back
// to the pooled ED, then to an impulse at the estimate when the
// database was never observed in a comparable regime).
func (m *Model) rdFor(dbIdx int, query string, numTerms int) (*RD, float64) {
	sum := m.Summaries.Summaries[dbIdx]
	rhat := m.Rel.Estimate(sum, query)
	key := m.Cfg.Classifier.Classify(numTerms, rhat)
	dm := m.DBs[dbIdx]

	if ed, ok := dm.EDs[key]; ok && ed.Observations() >= m.Cfg.MinObservations {
		if rd, err := ed.rd(rhat); err == nil {
			return rd, rhat
		}
	}
	if key.Band != BandZero && dm.Pooled.Observations() >= m.Cfg.MinObservations {
		if rd, err := dm.Pooled.rd(rhat); err == nil {
			return rd, rhat
		}
	}
	// No usable error model: trust the estimate outright, sharing the
	// read-only impulse at 0 as the table does.
	if rhat == 0 {
		return zeroImpulse, rhat
	}
	return Impulse(rhat), rhat
}

// newSelection builds the initial (unprobed) state for a query from
// rdFor: no table, no memo.
func (m *Model) newSelection(query string, numTerms int, metric Metric, k int) *Selection {
	n := len(m.DBs)
	s := &Selection{
		metric:        metric,
		k:             k,
		query:         query,
		rds:           make([]*RD, n),
		estimates:     make([]float64, n),
		probed:        make([]bool, n),
		unprobedStale: true,
	}
	for i := 0; i < n; i++ {
		s.rds[i], s.estimates[i] = m.rdFor(i, query, numTerms)
	}
	return s
}

// observeProbe is observe for tests that need only the error.
func (m *Model) observeProbe(dbIdx int, query string, numTerms int, actual float64) error {
	_, _, err := m.observe(dbIdx, query, numTerms, actual)
	return err
}

// expectedPartial returns E[Cor_p(set)] (Eq. 6): the expected fraction
// of the set that belongs to the true top-k. Because
// Cor_p = |set ∩ topk|/k = Σ_{i∈set} 1{i ∈ topk} / k, the expectation
// is the mean of exact membership probabilities.
func expectedPartial(rds []*RD, set []int) float64 {
	if len(set) == 0 {
		return 0
	}
	k := len(set)
	total := 0.0
	for _, i := range set {
		total += membershipProb(rds, i, k)
	}
	return total / float64(k)
}
