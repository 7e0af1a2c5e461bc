package core

import (
	"math"
	"testing"
	"testing/quick"

	"metaprobe/internal/stats"
)

// randomRDs builds a small random RD collection from raw fuzz bytes.
func randomRDs(raw []uint8, maxDBs int) []*RD {
	if len(raw) < 4 {
		return nil
	}
	n := 2 + int(raw[0])%(maxDBs-1)
	rds := make([]*RD, n)
	pos := 1
	next := func() uint8 {
		b := raw[pos%len(raw)]
		pos++
		return b
	}
	for i := range rds {
		m := 1 + int(next())%4
		vals := make([]float64, m)
		probs := make([]float64, m)
		for j := range vals {
			vals[j] = float64(int(next())%50)*10 + float64(j)*0.001
			probs[j] = float64(next()%100) + 1
		}
		rds[i] = MustRD(vals, probs)
	}
	return rds
}

// TestExpectedCorrectnessBounds: every expected-correctness quantity is
// a probability, and the partial metric dominates the absolute one for
// the same set (overlap credit ≥ exact-match credit).
func TestExpectedCorrectnessBounds(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		rds := randomRDs(raw, 6)
		if rds == nil {
			return true
		}
		k := 1 + int(kRaw)%(len(rds))
		set, eAbs := bestSet(Absolute, rds, k)
		if len(set) != min(k, len(rds)) {
			return false
		}
		if eAbs < -probEpsilon || eAbs > 1+probEpsilon {
			return false
		}
		ePart := expectedPartial(rds, set)
		if ePart < eAbs-1e-9 {
			return false // partial credit can never be below absolute
		}
		// Set indices must be valid, sorted and distinct.
		for i, idx := range set {
			if idx < 0 || idx >= len(rds) {
				return false
			}
			if i > 0 && set[i-1] >= idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestMembershipSumsToK: Σᵢ P(dbᵢ ∈ top-k) = k exactly (the top-k set
// always has exactly k members).
func TestMembershipSumsToK(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		rds := randomRDs(raw, 6)
		if rds == nil {
			return true
		}
		k := 1 + int(kRaw)%len(rds)
		total := 0.0
		for i := range rds {
			total += membershipProb(rds, i, k)
		}
		return math.Abs(total-float64(k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestProbingToCompletionIsCertain: after probing every database, the
// best set has expected correctness exactly 1 (full knowledge).
func TestProbingToCompletionIsCertain(t *testing.T) {
	rng := stats.NewRNG(66)
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(3)
		rds := make([]*RD, n)
		truths := make([]float64, n)
		for i := range rds {
			vals := []float64{float64(rng.Intn(40)), float64(40 + rng.Intn(40))}
			probs := []float64{0.3 + 0.4*rng.Float64(), 0.3}
			rds[i] = MustRD(vals, probs)
			truths[i] = vals[rng.Intn(2)]
		}
		for _, metric := range []Metric{Absolute, Partial} {
			sel := NewSelectionFromRDs(rds, metric, 2)
			probe := func(i int) (float64, error) { return truths[i], nil }
			out, err := APro(sel, probe, &Greedy{}, 1.0, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Reached || math.Abs(out.Certainty-1) > 1e-9 {
				t.Fatalf("trial %d metric %v: full probing certainty %v (%+v)", trial, metric, out.Certainty, out)
			}
			// And the answer must be the true top-2.
			want := TopKByScore(truths, 2)
			for i := range want {
				if out.Set[i] != want[i] {
					t.Fatalf("trial %d: set %v, want %v (truths %v)", trial, out.Set, want, truths)
				}
			}
		}
	}
}

// TestCertaintyNeverDecreasesWithInformation: replacing a database's RD
// with an impulse drawn from its own support, then re-optimizing, can
// move the best set — but averaged over the RD's outcomes the best
// certainty cannot drop (the usefulness bound, tested here end to end
// on random instances for both metrics and several k).
func TestCertaintyNeverDecreasesWithInformation(t *testing.T) {
	rng := stats.NewRNG(67)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(3)
		rds := make([]*RD, n)
		for i := range rds {
			m := 2 + rng.Intn(2)
			vals := make([]float64, m)
			probs := make([]float64, m)
			for j := range vals {
				vals[j] = float64(rng.Intn(60)) + float64(j)*0.001
				probs[j] = rng.Float64() + 0.1
			}
			rds[i] = MustRD(vals, probs)
		}
		k := 1 + rng.Intn(2)
		metric := Metric(rng.Intn(2))
		sel := NewSelectionFromRDs(rds, metric, k)
		_, before := sel.Best()
		target := rng.Intn(n)
		g := &Greedy{}
		if u := g.usefulness(sel, target); u < before-1e-9 {
			t.Fatalf("trial %d: expected usefulness %v below current certainty %v", trial, u, before)
		}
	}
}
