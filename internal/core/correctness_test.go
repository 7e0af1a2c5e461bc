package core

import (
	"math"
	"testing"

	"metaprobe/internal/stats"
)

// paperRDs returns the RDs of Figure 5(d): db1 = {50: 0.4, 100: 0.5,
// 150: 0.1} (derived in Example 3) and db2 = {65: 0.1, 130: 0.9}
// (the estimator underestimates db2 by 100% for 90% of queries).
func paperRDs() []*RD {
	return []*RD{
		MustRD([]float64{50, 100, 150}, []float64{0.4, 0.5, 0.1}),
		MustRD([]float64{65, 130}, []float64{0.1, 0.9}),
	}
}

// TestPaperExample4Certainty reproduces the paper's Example 4: from
// the two RDs, db2 is the most relevant database with probability
// 0.85 (0.81 from r₂=130 beating {50,100} plus 0.04 from r₂=65
// beating 50).
func TestPaperExample4Certainty(t *testing.T) {
	rds := paperRDs()
	got := MembershipProb(rds, 1, 1)
	if math.Abs(got-0.85) > 1e-12 {
		t.Errorf("P(db2 = top1) = %v, want 0.85", got)
	}
	// Complementarily, db1 wins with probability 0.15.
	if got := MembershipProb(rds, 0, 1); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("P(db1 = top1) = %v, want 0.15", got)
	}
	// E[Cor_a({db2})] must agree, and bestSet must return db2.
	if got := ExpectedAbsolute(rds, []int{1}); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("E[Cor_a({db2})] = %v, want 0.85", got)
	}
	set, e := bestSet(Absolute, rds, 1)
	if len(set) != 1 || set[0] != 1 || math.Abs(e-0.85) > 1e-12 {
		t.Errorf("bestSet = %v with E %v, want [1] at 0.85", set, e)
	}
}

// TestPaperSection34Probing reproduces Section 3.4: probing db1 and
// observing r₁ = 50 turns db1's RD into an impulse and raises the
// certainty of returning db2 from 0.85 to 1.
func TestPaperSection34Probing(t *testing.T) {
	sel := NewSelectionFromRDs(paperRDs(), Absolute, 1)
	set, e := sel.Best()
	if set[0] != 1 || math.Abs(e-0.85) > 1e-12 {
		t.Fatalf("pre-probe best = %v at %v", set, e)
	}
	sel.ApplyProbe(0, 50)
	set, e = sel.Best()
	if set[0] != 1 || math.Abs(e-1) > 1e-12 {
		t.Errorf("post-probe best = %v at %v, want db2 at 1", set, e)
	}
	if !sel.Probed(0) || sel.Probed(1) {
		t.Error("probed flags wrong")
	}
}

// TestExpectedPartialPaperFormula checks Eq. 6 with the worked DB²
// example of Section 5.1: P(2 overlaps) = 0.5, P(1 overlap) = 0.3,
// P(0) = 0.2 gives E[Cor_p] = 0.5·1 + 0.3·0.5 = 0.65. We construct an
// equivalent situation directly from membership marginals: E[Cor_p]
// is the mean of the two membership probabilities.
func TestExpectedPartialIsMeanOfMarginals(t *testing.T) {
	rds := []*RD{
		MustRD([]float64{10, 20}, []float64{0.5, 0.5}),
		MustRD([]float64{5, 25}, []float64{0.3, 0.7}),
		MustRD([]float64{8, 18}, []float64{0.6, 0.4}),
		Impulse(12),
	}
	for k := 1; k <= 3; k++ {
		for _, set := range [][]int{{0, 1}, {1, 2}, {0, 3}} {
			if len(set) != k {
				continue
			}
		}
	}
	set := []int{0, 2}
	want := (MembershipProb(rds, 0, 2) + MembershipProb(rds, 2, 2)) / 2
	if got := ExpectedPartial(rds, set); math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedPartial = %v, want %v", got, want)
	}
}

// enumerate computes exact expected correctness by brute force over
// the joint support (the ground truth for the factored formulas).
func enumerate(rds []*RD, set []int, metric Metric) float64 {
	n := len(rds)
	inSet := make([]bool, n)
	for _, i := range set {
		inSet[i] = true
	}
	k := len(set)
	vals := make([]float64, n)
	var total float64
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if i == n {
			// Rank by (value desc, index asc).
			beats := func(a, b int) bool {
				return vals[a] > vals[b] || (vals[a] == vals[b] && a < b)
			}
			overlap := 0
			for s := 0; s < n; s++ {
				if !inSet[s] {
					continue
				}
				rank := 0
				for o := 0; o < n; o++ {
					if o != s && beats(o, s) {
						rank++
					}
				}
				if rank < k {
					overlap++
				}
			}
			switch metric {
			case Absolute:
				if overlap == k {
					total += p
				}
			case Partial:
				total += p * float64(overlap) / float64(k)
			}
			return
		}
		for vi := 0; vi < rds[i].Len(); vi++ {
			vals[i] = rds[i].Value(vi)
			rec(i+1, p*rds[i].Prob(vi))
		}
	}
	rec(0, 1)
	return total
}

// TestExpectedCorrectnessAgainstBruteForce cross-checks the factored
// formulas against joint-support enumeration on randomized cases with
// deliberate value ties.
func TestExpectedCorrectnessAgainstBruteForce(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3) // 3..5 databases
		rds := make([]*RD, n)
		for i := range rds {
			support := 1 + rng.Intn(3)
			vals := make([]float64, support)
			probs := make([]float64, support)
			for j := range vals {
				vals[j] = float64(rng.Intn(5) * 10) // ties across DBs on purpose
				probs[j] = 0.1 + rng.Float64()
			}
			// Ensure distinct values within one RD.
			for j := range vals {
				vals[j] += float64(j) * 0.001
			}
			rds[i] = MustRD(vals, probs)
		}
		k := 1 + rng.Intn(n-1)
		set := stats.SampleWithoutReplacement(rng, n, k)
		for _, metric := range []Metric{Absolute, Partial} {
			got := Expected(metric, rds, set)
			want := enumerate(rds, set, metric)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: %v metric k=%d set=%v: got %v, want %v (rds=%v)",
					trial, metric, k, set, got, want, rds)
			}
		}
		// Membership marginals against brute force too.
		for i := 0; i < n; i++ {
			got := MembershipProb(rds, i, k)
			want := enumerate(rds, []int{i}, Partial) // k=1 overlap of {i}... not the same k!
			_ = want
			// Brute-force membership with the real k:
			wantK := bruteMembership(rds, i, k)
			if math.Abs(got-wantK) > 1e-9 {
				t.Fatalf("trial %d: membership(%d, k=%d) = %v, want %v", trial, i, k, got, wantK)
			}
		}
	}
}

// bruteMembership enumerates P(db i ∈ topk) over the joint support.
func bruteMembership(rds []*RD, target, k int) float64 {
	n := len(rds)
	vals := make([]float64, n)
	var total float64
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if i == n {
			beats := 0
			for o := 0; o < n; o++ {
				if o == target {
					continue
				}
				if vals[o] > vals[target] || (vals[o] == vals[target] && o < target) {
					beats++
				}
			}
			if beats < k {
				total += p
			}
			return
		}
		for vi := 0; vi < rds[i].Len(); vi++ {
			vals[i] = rds[i].Value(vi)
			rec(i+1, p*rds[i].Prob(vi))
		}
	}
	rec(0, 1)
	return total
}

// TestTieBreakingMatchesGoldenOrder pins the tie-break convention:
// with identical impulse RDs, the lower index wins.
func TestTieBreakingMatchesGoldenOrder(t *testing.T) {
	rds := []*RD{Impulse(10), Impulse(10), Impulse(10)}
	if got := MembershipProb(rds, 0, 1); got != 1 {
		t.Errorf("P(db0 = top1) = %v, want 1 (ties go to lower index)", got)
	}
	if got := MembershipProb(rds, 1, 1); got != 0 {
		t.Errorf("P(db1 = top1) = %v, want 0", got)
	}
	if got := MembershipProb(rds, 1, 2); got != 1 {
		t.Errorf("P(db1 ∈ top2) = %v, want 1", got)
	}
	if got := ExpectedAbsolute(rds, []int{0, 1}); got != 1 {
		t.Errorf("E[Cor_a({0,1})] = %v, want 1", got)
	}
	if got := ExpectedAbsolute(rds, []int{1, 2}); got != 0 {
		t.Errorf("E[Cor_a({1,2})] = %v, want 0", got)
	}
}

func TestExpectedEdgeCases(t *testing.T) {
	rds := paperRDs()
	if got := ExpectedPartial(rds, nil); got != 0 {
		t.Errorf("empty set partial = %v", got)
	}
	if got := ExpectedAbsolute(rds, nil); got != 0 {
		t.Errorf("empty set absolute = %v", got)
	}
	if got := ExpectedAbsolute(rds, []int{0, 1}); got != 1 {
		t.Errorf("full set absolute = %v, want 1", got)
	}
	if got := MembershipProb(rds, 0, 2); got != 1 {
		t.Errorf("membership with k=n = %v, want 1", got)
	}
	if got := MembershipProb(rds, 0, 0); got != 0 {
		t.Errorf("membership with k=0 = %v, want 0", got)
	}
}

func TestBestSetPartialExactness(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(2)
		rds := make([]*RD, n)
		for i := range rds {
			vals := []float64{float64(rng.Intn(40)), float64(40 + rng.Intn(40))}
			probs := []float64{rng.Float64() + 0.05, rng.Float64() + 0.05}
			rds[i] = MustRD(vals, probs)
		}
		k := 2
		set, e := bestSet(Partial, rds, k)
		// Exhaustive check.
		bestE := -1.0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if v := ExpectedPartial(rds, []int{a, b}); v > bestE {
					bestE = v
				}
			}
		}
		if math.Abs(e-bestE) > 1e-9 {
			t.Fatalf("trial %d: bestSet(Partial) = %v at %v, exhaustive best %v", trial, set, e, bestE)
		}
	}
}

func TestBestSetAbsoluteExhaustiveAgreement(t *testing.T) {
	rng := stats.NewRNG(14)
	for trial := 0; trial < 30; trial++ {
		n := 5
		rds := make([]*RD, n)
		for i := range rds {
			vals := []float64{float64(rng.Intn(40)), float64(40 + rng.Intn(40))}
			probs := []float64{rng.Float64() + 0.05, rng.Float64() + 0.05}
			rds[i] = MustRD(vals, probs)
		}
		k := 2
		// Small n: exhaustiveLimit covers C(5,2)=10 subsets, so the
		// result must be the global optimum.
		set, e := bestSet(Absolute, rds, k)
		bestE := -1.0
		var exhaustiveSet []int
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if v := ExpectedAbsolute(rds, []int{a, b}); v > bestE {
					bestE, exhaustiveSet = v, []int{a, b}
				}
			}
		}
		if math.Abs(e-bestE) > 1e-9 {
			t.Fatalf("trial %d: bestSet(Absolute) = %v at %v, exhaustive %v at %v", trial, set, e, exhaustiveSet, bestE)
		}
	}
}

func TestBestSetDegenerateInputs(t *testing.T) {
	rds := paperRDs()
	if set, e := bestSet(Absolute, rds, 0); set != nil || e != 0 {
		t.Errorf("k=0: %v, %v", set, e)
	}
	if set, e := bestSet(Absolute, rds, 5); len(set) != 2 || e != 1 {
		t.Errorf("k>n: %v, %v", set, e)
	}
	if set, _ := bestSet(Partial, rds, 2); len(set) != 2 {
		t.Errorf("k=n: %v", set)
	}
}

// TestMonteCarloAgreement samples from larger random RDs and compares
// the closed-form expected correctness with simulation.
func TestMonteCarloAgreement(t *testing.T) {
	rng := stats.NewRNG(99)
	n := 8
	rds := make([]*RD, n)
	for i := range rds {
		m := 2 + rng.Intn(4)
		vals := make([]float64, m)
		probs := make([]float64, m)
		for j := range vals {
			vals[j] = float64(rng.Intn(1000))
			probs[j] = rng.Float64() + 0.01
		}
		for j := range vals {
			vals[j] += float64(j) * 0.01
		}
		rds[i] = MustRD(vals, probs)
	}
	k := 3
	set, e := bestSet(Absolute, rds, k)

	const samples = 200000
	hits := 0
	vals := make([]float64, n)
	for s := 0; s < samples; s++ {
		for i, rd := range rds {
			u := rng.Float64()
			acc := 0.0
			vals[i] = rd.Value(rd.Len() - 1)
			for vi := 0; vi < rd.Len(); vi++ {
				acc += rd.Prob(vi)
				if u < acc {
					vals[i] = rd.Value(vi)
					break
				}
			}
		}
		top := TopKByScore(vals, k)
		same := true
		for i := range top {
			if top[i] != set[i] {
				same = false
				break
			}
		}
		if same {
			hits++
		}
	}
	mc := float64(hits) / samples
	se := math.Sqrt(e*(1-e)/samples) + 1e-6
	if math.Abs(mc-e) > 6*se+0.005 {
		t.Errorf("Monte Carlo %v vs closed form %v (se %v)", mc, e, se)
	}
}
