package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Greedy.Rank(s, t, m) may leave candidates unevaluated, and the set
// search prunes by three bounds and multiplies live factors only. These
// tests pin all of that to the unpruned answers: Rank(m) against the
// full sweep Rank(0) in databases and usefulness bits, the two
// marginal inequalities and the identity under the third bound against
// the reference formulas, and the scratch's best set against a
// brute-force enumeration.

// rankShape draws one selection and the relevancies its probes observe.
type rankShape struct {
	name string
	k    int // 0: k = 1..3 by trial
	draw func(rng *rand.Rand) []*RD
}

// wideRD has nVals support values on a grid of step apart, so several
// databases overlap without every value tying.
func wideRD(rng *rand.Rand, nVals int, step float64) *RD {
	vals := make([]float64, nVals)
	probs := make([]float64, nVals)
	base := float64(rng.Intn(6)) * step
	for j := range vals {
		vals[j] = base + float64(j)*step
		probs[j] = 0.1 + rng.Float64()
	}
	return MustRD(vals, probs)
}

// coldRDs is the serving shape: most RDs impulses at 0, a few wide ones.
func coldRDs(rng *rand.Rand, n, live, nVals int) []*RD {
	rds := make([]*RD, n)
	for i := range rds {
		rds[i] = Impulse(0)
	}
	for _, i := range rng.Perm(n)[:live] {
		rds[i] = wideRD(rng, nVals, 10)
	}
	return rds
}

var rankShapes = []rankShape{
	{name: "ties", draw: func(rng *rand.Rand) []*RD {
		rds := make([]*RD, 4+rng.Intn(5))
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		return rds
	}},
	{name: "cold", draw: func(rng *rand.Rand) []*RD {
		return coldRDs(rng, 12+rng.Intn(6), 3+rng.Intn(3), 4+rng.Intn(5))
	}},
	// C(24, 3) = 2024 > exhaustiveLimit: the set search sees only the
	// k+8 highest marginals.
	{name: "truncated", draw: func(rng *rand.Rand) []*RD {
		return coldRDs(rng, 24, 12, 3)
	}},
	// The same on instances where the truncated search really misses
	// sets (see TestRankTruncatedSearchCeiling).
	{name: "missed", k: 5, draw: func(rng *rand.Rand) []*RD {
		return missedSetRDs(0.2+0.05*rng.Float64(), 0.02+0.08*rng.Float64())
	}},
}

// rankCopy snapshots Rank's views.
func rankCopy(t *testing.T, g Greedy, s *Selection, thr float64, m int) ([]int, []float64) {
	t.Helper()
	dbs, us, err := g.Rank(s, thr, m)
	if err != nil {
		t.Fatal(err)
	}
	return append([]int(nil), dbs...), append([]float64(nil), us...)
}

// assertRankPrefix checks Rank(m) against the first m entries of the
// full sweep, bit for bit.
func assertRankPrefix(t *testing.T, label string, g Greedy, s *Selection, thr float64, fullDBs []int, fullUs []float64) {
	t.Helper()
	for _, m := range []int{1, 2, 4} {
		dbs, us := rankCopy(t, g, s, thr, m)
		want := min(m, len(fullDBs))
		if len(dbs) != want || len(us) != want {
			t.Fatalf("%s: Rank(m=%d) returned %d databases, want %d", label, m, len(dbs), want)
		}
		for x := range dbs {
			if dbs[x] != fullDBs[x] || math.Float64bits(us[x]) != math.Float64bits(fullUs[x]) {
				t.Fatalf("%s: Rank(m=%d) = %v %v, full sweep starts %v %v", label, m, dbs, us, fullDBs[:want], fullUs[:want])
			}
		}
	}
}

// TestRankMatchesFullSweep walks full APro runs and, at every step,
// requires Rank(m) for m = 1, 2, 4 to be the prefix of the sweep that
// evaluates every candidate — over tie-heavy grids, the cold serving
// shape, truncated set searches (ones that miss the best set among
// them), k = 1..3 and 5, and uniform and non-uniform probe costs. Every
// shape must skip candidates, and some must give candidates up part way
// through their support values.
func TestRankMatchesFullSweep(t *testing.T) {
	policies := map[string]Greedy{
		"uniform": {},
		"costed":  {Cost: func(i int) float64 { return []float64{1, 0.25, 3, 1.5}[i%4] }},
	}
	abandoned := 0
	for _, shape := range rankShapes {
		for costName, g := range policies {
			var work RankWork
			steps := 0
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 12; trial++ {
				rds := shape.draw(rng)
				k := 1 + trial%3
				if shape.k > 0 {
					k = shape.k
				}
				sel := NewSelectionFromRDs(rds, Absolute, k)
				for {
					if _, e := sel.Best(); e >= 0.95 {
						break
					}
					fullDBs, fullUs, err := g.Rank(sel, 0.95, 0)
					if err != nil {
						break // nothing informative left
					}
					fullDBs, fullUs = append([]int(nil), fullDBs...), append([]float64(nil), fullUs...)
					label := shape.name + "/" + costName
					assertRankPrefix(t, label, g, sel, 0.95, fullDBs, fullUs)
					h := fullDBs[0]
					sel.ApplyProbe(h, rds[h].Value(rng.Intn(rds[h].Len())))
					steps++
				}
				w := sel.Work()
				work.Swept += w.Swept
				work.Skipped += w.Skipped
				work.Abandoned += w.Abandoned
				sel.Release()
			}
			if steps == 0 || work.Skipped == 0 {
				t.Errorf("%s/%s: %d steps skipped %d candidates (swept %d): the comparison never met the bound",
					shape.name, costName, steps, work.Skipped, work.Swept)
			}
			abandoned += work.Abandoned
		}
	}
	if abandoned == 0 {
		t.Error("no candidate was given up part way: the per-value bound never stopped a sweep")
	}
}

// TestRankMarginCoversEpsilonChains: three near-useless candidates whose
// gains step up by 0.9 epsilons. In the full sweep X (index 1) takes the
// lead first, Y is within an epsilon of it and does not, and A beats X
// by 1.8 epsilons: A wins. Without X in the scan Y would lead, A would
// be within an epsilon of Y, and Y would win — so X, whose bound sits
// 1.8 epsilons under A's score, must not be skipped: the margin has to
// span the chain, not one comparison.
func TestRankMarginCoversEpsilonChains(t *testing.T) {
	tiny := func(p float64) *RD { return MustRD([]float64{50, 150}, []float64{1 - p, p}) }
	rds := []*RD{Impulse(100), tiny(1e-12), tiny(0.9e-9), tiny(1.8e-9)}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	sel.ApplyProbe(0, 100)
	g := Greedy{}
	fullDBs, fullUs := rankCopy(t, g, sel, 1, 0)
	if fullDBs[0] != 3 {
		t.Fatalf("full sweep = %v %v, want database 3 first: the chain is not set up", fullDBs, fullUs)
	}
	assertRankPrefix(t, "chain", g, sel, 1, fullDBs, fullUs)
}

// TestRankBoundDividesByCost: a cheap candidate with a small bound
// outranks a dear one with a large bound once both are divided by cost,
// so the bound must be scaled exactly as the score is.
func TestRankBoundDividesByCost(t *testing.T) {
	rds := []*RD{
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),
		Impulse(50),
		MustRD([]float64{40, 120}, []float64{0.9, 0.1}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	g := Greedy{Cost: func(i int) float64 { return []float64{1, 1, 0.01}[i] }}
	fullDBs, fullUs := rankCopy(t, g, sel, 1, 0)
	if fullDBs[0] != 2 {
		t.Fatalf("full sweep = %v %v, want the cheap database 2 first", fullDBs, fullUs)
	}
	assertRankPrefix(t, "cost", g, sel, 1, fullDBs, fullUs)
}

// TestRankPartialKeepsFullSweep: the bound is proved for the absolute
// metric only, so a partial-metric ranking evaluates every candidate on
// a state where the absolute one skips some.
func TestRankPartialKeepsFullSweep(t *testing.T) {
	// Database 0 is always in the top two and database 3 never: probing
	// either can change nothing, and their marginals say so.
	rds := []*RD{
		MustRD([]float64{200, 210}, []float64{0.5, 0.5}),
		MustRD([]float64{100, 120}, []float64{0.5, 0.5}),
		MustRD([]float64{110, 130}, []float64{0.5, 0.5}),
		MustRD([]float64{1, 2}, []float64{0.5, 0.5}),
		MustRD([]float64{90, 125}, []float64{0.5, 0.5}),
	}
	skipped := map[Metric]int{}
	for _, metric := range []Metric{Absolute, Partial} {
		sel := NewSelectionFromRDs(rds, metric, 2)
		if _, _, err := (Greedy{}).Rank(sel, 0.99, 1); err != nil {
			t.Fatal(err)
		}
		w := sel.Work()
		if w.Swept+w.Skipped+w.Abandoned != len(rds) {
			t.Errorf("%v: swept %d + skipped %d + abandoned %d candidates, want %d", metric, w.Swept, w.Skipped, w.Abandoned, len(rds))
		}
		skipped[metric] = w.Skipped
		sel.Release()
	}
	if skipped[Absolute] == 0 || skipped[Partial] != 0 {
		t.Errorf("skipped %d candidates on the absolute metric (want some) and %d on the partial (want none)",
			skipped[Absolute], skipped[Partial])
	}
}

// referenceUsefulness is Figure 13 from the reference formulas alone.
func referenceUsefulness(rds []*RD, h, k int) float64 {
	hyp := append([]*RD(nil), rds...)
	u := 0.0
	for vi := 0; vi < rds[h].Len(); vi++ {
		hyp[h] = Impulse(rds[h].Value(vi))
		_, e := bestSet(Absolute, hyp, k)
		u += rds[h].Prob(vi) * e
	}
	return u
}

// TestUsefulnessMarginalBound is the inequality Rank skips by, on the
// reference evaluation: U_h ≤ B + 2·min(p_h, 1 − p_h) with B the best
// E[Cor_a] over every k-set (n ≤ 7: the search is exhaustive), and per
// support value, the one Rank skips and gives up by: the best E[Cor_a]
// given r_h = v is at most cap_v = max(min(B + p, 1 − tail_v),
// min(B + 1 − p, tail_v)), with tail_v = P(h ∈ top-k | r_h = v).
func TestUsefulnessMarginalBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(5)
		k := 1 + rng.Intn(n-1)
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		_, b := bestSet(Absolute, rds, k)
		for h := range rds {
			p := membershipProb(rds, h, k)
			u := referenceUsefulness(rds, h, k)
			if bound := b + 2*min(p, 1-p); u > bound+pruneSlack {
				t.Fatalf("trial %d n=%d k=%d db %d: usefulness %v above B %v + 2·min(%v, 1−%v) = %v", trial, n, k, h, u, b, p, p, bound)
			}
			hyp := append([]*RD(nil), rds...)
			for vi := 0; vi < rds[h].Len(); vi++ {
				hyp[h] = Impulse(rds[h].Value(vi))
				_, e := bestSet(Absolute, hyp, k)
				tail := membershipProb(hyp, h, k)
				c := max(min(b+p, 1-tail), min(b+1-p, tail))
				if e > c+pruneSlack {
					t.Fatalf("trial %d n=%d k=%d db %d = %v: best E[Cor] %v above cap %v (B %v, p %v, tail %v)",
						trial, n, k, h, rds[h].Value(vi), e, c, b, p, tail)
				}
			}
		}
	}
}

// forEachKSet calls f with every ascending k-subset of 0..n−1.
func forEachKSet(n, k int, f func(set []int)) {
	set := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			f(set)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			set[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// TestExpectedAbsoluteMarginalBounds is the pair of inequalities the set
// search prunes by: E[Cor_a(S)] ≤ P(i ∈ top-k) for every member and
// ≤ 1 − P(j ∈ top-k) for every non-member.
func TestExpectedAbsoluteMarginalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(5)
		k := 1 + rng.Intn(n-1)
		rds := make([]*RD, n)
		marg := make([]float64, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		for i := range rds {
			marg[i] = membershipProb(rds, i, k)
		}
		forEachKSet(n, k, func(set []int) {
			e := expectedAbsolute(rds, set)
			in := make([]bool, n)
			for _, i := range set {
				in[i] = true
			}
			for j := range rds {
				bound := 1 - marg[j]
				if in[j] {
					bound = marg[j]
				}
				if e > bound+pruneSlack {
					t.Fatalf("trial %d: E[Cor_a(%v)] = %v above the bound %v from database %d (member %v)", trial, set, e, bound, j, in[j])
				}
			}
		})
	}
}

// massGap is the largest gap between the E[Cor_a] that e gives every
// k-set of n databases, summed, and 1, or summed over the sets holding
// database i, and marg[i].
func massGap(n, k int, e func([]int) float64, marg []float64) float64 {
	sums := make([]float64, n)
	total := 0.0
	forEachKSet(n, k, func(set []int) {
		x := e(set)
		total += x
		for _, i := range set {
			sums[i] += x
		}
	})
	gap := math.Abs(total - 1)
	for i, sum := range sums {
		gap = max(gap, math.Abs(sum-marg[i]))
	}
	return gap
}

// oddImpulses puts an impulse at +Inf, −Inf or −0 in place of about a
// third of rds's impulses.
func oddImpulses(rng *rand.Rand, rds []*RD) []*RD {
	for i, rd := range rds {
		if rd.isImpulse() && rng.Intn(3) == 0 {
			rds[i] = Impulse(oddAnswers[rng.Intn(len(oddAnswers))])
		}
	}
	return rds
}

// TestSetMassPartitionsMarginals is the identity the set search's third
// bound rests on: exactly one k-set is the top-k (Eq. 5), so E[Cor_a]
// summed over every k-set is 1 and over the sets holding i is
// P(i ∈ topk). It must hold to three orders under pruneSlack, which pads
// the bound, in the base state and under every hypothesis, with ties,
// cold zeros, impulses at ±Inf and −0, and on C(20, 3)-sized states.
// (It needs the key order total; no NaN reaches a selection.)
func TestSetMassPartitionsMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	check := func(label string, rds []*RD, k int) float64 {
		t.Helper()
		n := len(rds)
		sel := NewSelectionFromRDs(rds, Absolute, k)
		defer sel.Release()
		sel.ensureScratch()
		sc := sel.scratch
		gap := massGap(n, k, sc.baseExpected, sc.marg)
		for _, h := range sc.live {
			for vi := 0; vi < rds[h].Len(); vi++ {
				sc.beginHypothesis(h, vi)
				gap = max(gap, massGap(n, k, sc.hypExpected, sc.hypMarg))
				sc.hypActive = false
			}
		}
		if gap > pruneSlack/1000 {
			t.Fatalf("%s: the sets' E[Cor_a] miss a marginal or 1 by %g", label, gap)
		}
		return gap
	}
	small, wide := 0.0, 0.0
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(6)
		k := 2 + rng.Intn(min(3, n-2))
		rds := oddImpulses(rng, gridRDs(rng, n, 2+rng.Intn(n-1), 2+rng.Intn(3), 8))
		small = max(small, check(fmt.Sprintf("trial %d (n=%d k=%d)", trial, n, k), rds, k))
	}
	for trial := 0; trial < 10; trial++ {
		rds := oddImpulses(rng, gridRDs(rng, 20, 6+rng.Intn(6), 2+rng.Intn(4), 10))
		wide = max(wide, check(fmt.Sprintf("C(20, 3) trial %d", trial), rds, 3))
	}
	t.Logf("largest gap %g on 4–9 databases, %g on C(20, 3)", small, wide)
}

// TestBestFromMatchesBruteForce: the scratch's pruned, impulse-free
// search returns the maximum of the reference E[Cor_a] over every k-set,
// bit for bit, on unprobed states and with probed impulses in the mix,
// a quarter of them at ±Inf or −0, and scores the sets the reference's
// search with the same three bounds scores.
func TestBestFromMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(6)
		k := 1 + rng.Intn(n-1)
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		sel := NewSelectionFromRDs(rds, Absolute, k) // n ≤ 8: exhaustive
		for _, i := range rng.Perm(n) {
			set, e := sel.Best()
			best := -1.0
			forEachKSet(n, k, func(s []int) {
				best = max(best, expectedAbsolute(sel.rds, s))
			})
			if math.Float64bits(e) != math.Float64bits(best) {
				t.Fatalf("trial %d: best E[Cor_a] %v, brute force %v", trial, e, best)
			}
			if got := expectedAbsolute(sel.rds, set); math.Float64bits(got) != math.Float64bits(e) {
				t.Fatalf("trial %d: set %v scores %v, reported %v", trial, set, got, e)
			}
			if _, _, sets := searchSets(Absolute, sel.rds, k, true); sel.scratch.sets != sets {
				t.Fatalf("trial %d: the search scored %d sets, the reference with all three bounds %d", trial, sel.scratch.sets, sets)
			}
			v := rds[i].Value(rng.Intn(rds[i].Len()))
			if rng.Intn(4) == 0 {
				v = oddAnswers[rng.Intn(len(oddAnswers))]
			}
			sel.ApplyProbe(i, v)
		}
		sel.Release()
	}
}

// missedSetRDs draws k = 5 of n = 15 (C(15, 5) = 3003 > exhaustiveLimit,
// so the set search sees the 13 top marginals): three certain databases,
// X at 50, Y at 49, nine decoys at 90 with probability q, and a last
// database, d, at 60 with probability r. For q near 0.225 the decoys'
// marginals sit just above Y's, so the search leaves Y out and misses
// the best set, the certain three with X and Y; d's low answer lifts Y
// back in.
func missedSetRDs(q, r float64) []*RD {
	rds := []*RD{Impulse(200), Impulse(201), Impulse(202), Impulse(50), Impulse(49)}
	for i := 0; i < 9; i++ {
		rds = append(rds, MustRD([]float64{1 + 0.01*float64(i), 90 + 0.01*float64(i)}, []float64{1 - q, q}))
	}
	return append(rds, MustRD([]float64{2, 60}, []float64{1 - r, r}))
}

// TestRankTruncatedSearchCeiling: when the set search sees only the top
// marginals, the E[Cor] it returns is not a proven maximum. On
// missedSetRDs(0.225, 0.05) it finds 0.051 although the best set scores
// 0.096. Probing d, P(in top-5) ≈ 0.018, has usefulness 0.101, above
// current + 2·p_d, and at half the decoys' cost it ranks first. The
// bound's B must then come from the marginals, min(p₍k₎, 1 − p₍k+1₎), or
// d is skipped.
func TestRankTruncatedSearchCeiling(t *testing.T) {
	rds := missedSetRDs(0.225, 0.05)
	d := len(rds) - 1
	const k = 5
	sel := NewSelectionFromRDs(rds, Absolute, k)
	defer sel.Release()
	_, current := sel.Best()
	proven := -1.0
	forEachKSet(len(rds), k, func(s []int) { proven = max(proven, expectedAbsolute(rds, s)) })
	if proven <= current+probEpsilon {
		t.Fatalf("truncated search found %v, exhaustive %v: the instance no longer separates them", current, proven)
	}
	g := Greedy{Cost: func(i int) float64 {
		if i == d {
			return 0.5
		}
		return 1
	}}
	fullDBs, fullUs := rankCopy(t, g, sel, 1, 0)
	if p := sel.Marginals()[d]; fullDBs[0] != d || fullUs[0] <= current+2*p+probEpsilon {
		t.Fatalf("full sweep = %v %v with current %v: database %d should rank first, above current + 2·%v", fullDBs, fullUs, current, d, p)
	}
	assertRankPrefix(t, "ceiling", g, sel, 1, fullDBs, fullUs)
}
