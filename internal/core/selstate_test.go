package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The scratch shares three things that neither a hypothesis's support
// value nor a probe changes: the per-key terms of E[Cor_a(S)] across a
// candidate's support values, the DP row both swapped tails come from,
// and the part of the key grid a probe did not touch. Each is pinned
// here to the computation it replaced, bit for bit.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// gridRD draws an RD with nVals support values on the integers below
// span, so equal values across databases, and with them the index
// tie-break in both directions, are the rule.
func gridRD(rng *rand.Rand, nVals, span int) *RD {
	vals := make([]float64, nVals)
	probs := make([]float64, nVals)
	for j, v := range rng.Perm(span)[:nVals] {
		vals[j] = float64(v)
		probs[j] = 0.1 + rng.Float64()
	}
	return MustRD(vals, probs)
}

// gridRDs mixes live RDs with cold impulses at 0 and probed impulses on
// the same integer grid.
func gridRDs(rng *rand.Rand, n, live, nVals, span int) []*RD {
	rds := make([]*RD, n)
	for i := range rds {
		if rng.Intn(2) == 0 {
			rds[i] = Impulse(0)
		} else {
			rds[i] = Impulse(float64(rng.Intn(span)))
		}
	}
	for _, i := range rng.Perm(n)[:live] {
		rds[i] = gridRD(rng, nVals, span)
	}
	return rds
}

// checkHypothesisTerms takes every hypothesis of every candidate in hs
// and compares, for the searched best set and then for every k-set, the
// scratch's E[Cor_a] with the reference on the RDs with the hypothesis's
// impulse swapped in. It returns, over the last candidate, how many set
// scorings there were, how many found their term vector kept, and the
// number of k-sets.
func checkHypothesisTerms(t *testing.T, label string, rds []*RD, k int, hs []int) (scored, shared, sets int) {
	t.Helper()
	n := len(rds)
	sel := NewSelectionFromRDs(rds, Absolute, k)
	defer sel.Release()
	hypRDs := slices.Clone(rds)
	for _, h := range hs {
		scored, shared = 0, 0
		for vi := 0; vi < rds[h].Len(); vi++ {
			w := rds[h].Value(vi)
			hypRDs[h] = Impulse(w)
			set, e := sel.bestIf(h, vi)
			sc := sel.scratch
			if ref := expectedAbsolute(hypRDs, set); !sameBits(e, ref) {
				t.Fatalf("%s: db%d = %v: best set %v scores %x, reference %x", label, h, w, set, e, ref)
			}
			scored, shared = scored+sc.sets, shared+sc.shared
			// Re-armed, the overlay scores every k-set; an impulse arms
			// nothing.
			sc.beginHypothesis(h, vi)
			if sc.hypActive != !rds[h].isImpulse() {
				t.Fatalf("%s: db%d (impulse %v): hypothesis armed %v", label, h, rds[h].isImpulse(), sc.hypActive)
			}
			if sc.hypActive {
				sc.shared, sets = 0, 0
				forEachKSet(n, k, func(set []int) {
					sets++
					got, ref := sc.hypExpected(set), expectedAbsolute(hypRDs, set)
					if !sameBits(got, ref) {
						t.Fatalf("%s: db%d = %v, set %v: E[Cor_a] %x, reference %x", label, h, w, set, got, ref)
					}
				})
				scored, shared = scored+sets, shared+sc.shared
				sc.hypActive = false
			}
		}
		hypRDs[h] = rds[h]
	}
	return scored, shared, sets
}

func allDBs(n int) []int {
	hs := make([]int, n)
	for i := range hs {
		hs[i] = i
	}
	return hs
}

// TestHypothesisTermsMatchReference: summing the kept per-key terms a
// hypothesis's value lets through gives the reference E[Cor_a] of the
// state with that impulse in it — with the candidate inside and outside
// the set, lowest and highest in index, on ties, impulses and cold zeros,
// under the exhaustive and the truncated search, and whether the term
// vector came from the cache or not.
func TestHypothesisTermsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		k := 1 + rng.Intn(min(4, n-1))
		rds := gridRDs(rng, n, 1+rng.Intn(n), 2+rng.Intn(3), 6)
		scored, shared, sets := checkHypothesisTerms(t, "small", rds, k, allDBs(n))
		if !rds[n-1].isImpulse() && shared != scored-sets {
			t.Fatalf("trial %d: %d of %d scorings shared over %d sets, want all but one per set", trial, shared, scored, sets)
		}
	}

	// C(24, 3) = 2024: the search is truncated to the k+8 top marginals,
	// the index table is on.
	rds := gridRDs(rng, 24, 8, 3, 6)
	rds[0], rds[23] = gridRD(rng, 4, 6), gridRD(rng, 4, 6)
	if scored, shared, sets := checkHypothesisTerms(t, "truncated", rds, 3, []int{0, 11, 23}); shared != scored-sets {
		t.Fatalf("truncated: %d of %d scorings shared over %d sets", shared, scored, sets)
	}

	// C(24, 4) = 10 626 > maxTermSets: no table, nothing kept.
	if scored, shared, _ := checkHypothesisTerms(t, "no table", rds, 4, []int{0, 23}); shared != 0 || scored == 0 {
		t.Fatalf("no table: %d of %d scorings shared", shared, scored)
	}

	// 1 001 sets of four databases with twelve keys each: the arena fills
	// while the candidate's first value is scored; later sets are computed
	// every time.
	wide := make([]*RD, 14)
	for i := range wide {
		wide[i] = gridRD(rng, 12, 16)
	}
	scored, shared, sets := checkHypothesisTerms(t, "arena", wide, 4, []int{0, 6, 13})
	if shared == 0 || shared >= scored-sets {
		t.Fatalf("arena: %d of %d scorings shared over %d sets, want some and not all", shared, scored, sets)
	}
}

// TestTermArenaBound: the arena never grows past its constant.
func TestTermArenaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rds := make([]*RD, 14)
	for i := range rds {
		rds[i] = gridRD(rng, 12, 16)
	}
	sel := NewSelectionFromRDs(rds, Absolute, 4)
	sel.ensureScratch()
	sc := sel.scratch
	sc.beginHypothesis(5, 3)
	forEachKSet(14, 4, func(set []int) { sc.hypExpected(set) })
	if got := len(sc.termArena); got > maxTermFloats || got < maxTermFloats-4*12 {
		t.Fatalf("arena holds %d floats, want it full at %d", got, maxTermFloats)
	}
}

// convolveBernoulli folds one Bernoulli(p) factor into a DP row in place.
func convolveBernoulli(row []float64, p float64) {
	q := 1 - p
	for c := len(row) - 1; c >= 1; c-- {
		row[c] = row[c]*q + row[c-1]*p
	}
	row[0] *= q
}

// TestSwappedTailsFromOneRow: both tails swappedTails takes from the row
// without factor h equal the tail of the row with that factor put back as
// 0 and as 1 — rebuilt from the grid when the old factor is large,
// deconvolved and convolved when it is small.
func TestSwappedTailsFromOneRow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var zero, one, small, large, k1 int
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(6)
		k := 1 + rng.Intn(min(4, n-1))
		rds := gridRDs(rng, n, 2+rng.Intn(n-1), 2+rng.Intn(3), 6)
		sel := NewSelectionFromRDs(rds, Absolute, k)
		sel.ensureScratch()
		sc := sel.scratch
		factors := make([]float64, n)
		want := make([]float64, k)
		for h := range rds {
			if rds[h].isImpulse() {
				continue
			}
			sc.beginHypothesis(h, 0)
			for i := range rds {
				for t2 := sc.keyStart[i]; i != h && t2 < sc.keyStart[i+1]; t2++ {
					oldP := sc.gt[t2*n+h]
					switch {
					case oldP == 0:
						zero++
					case oldP == 1:
						one++
					case oldP <= deconvMaxP:
						small++
					default:
						large++
					}
					if k == 1 {
						k1++
					}
					for newP := 0; newP <= 1; newP++ {
						if oldP <= deconvMaxP {
							deconvolveBernoulli(want, sc.dp[t2*k:t2*k+k], oldP)
							convolveBernoulli(want, float64(newP))
						} else {
							copy(factors, sc.gt[t2*n:t2*n+n])
							factors[h] = float64(newP)
							dpRowAll(want, factors, i, -1)
						}
						sc.hypTail[2*t2], sc.hypTail[2*t2+1] = tailUnset, tailUnset
						got := sc.swappedTails(t2, i, newP)
						if !sameBits(got, sumTail(want)) || !sameBits(got, sc.hypTail[2*t2+newP]) {
							t.Fatalf("trial %d: key %d, factor %d %v → %d: tail %x (kept %x), want %x",
								trial, t2, h, oldP, newP, got, sc.hypTail[2*t2+newP], sumTail(want))
						}
					}
				}
			}
			sc.hypActive = false
		}
		sel.Release()
	}
	if zero == 0 || one == 0 || small == 0 || large == 0 || k1 == 0 {
		t.Fatalf("cases hit: factor 0 %d, factor 1 %d, deconvolved %d, rebuilt %d, k = 1 %d", zero, one, small, large, k1)
	}
}

// dpRowAll is the DP row as the reference computes it, over every factor
// but skip and skip2 in ascending order, impulses included: the top-down
// update with each factor clamped to [0, 1].
func dpRowAll(dst, factors []float64, skip, skip2 int) {
	clear(dst)
	dst[0] = 1
	hi := len(dst) - 1
	for j, p := range factors {
		if j == skip || j == skip2 {
			continue
		}
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		q := 1 - p
		for c := hi; c >= 1; c-- {
			dst[c] = dst[c]*q + dst[c-1]*p
		}
		dst[0] *= q
	}
}

// TestLiveRowsMatchAllFactors: the DP rows the scratch multiplies over
// its live factors only, shifting once per impulse above the key, are
// the rows over every factor bit for bit — after a build and after a
// probe's repair (collapse), on a grid of its own and on one a shell
// copied (copyGrid), for k = 1–6, with impulses at 0 and at values on
// the keys' grid, each row with its owner left out and with its owner
// and a live database left out (swappedTails' rebuild).
func TestLiveRowsMatchAllFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rows, shifted, emptied := 0, 0, 0
	check := func(label string, sc *selScratch) {
		t.Helper()
		n, k := sc.n, sc.k
		got, want := make([]float64, k), make([]float64, k)
		for i := 0; i < n; i++ {
			for key := sc.keyStart[i]; key < sc.keyStart[i+1]; key++ {
				factors := sc.gt[key*n : key*n+n]
				dpRowAll(want, factors, i, -1)
				for c := range want {
					if !sameBits(sc.dp[key*k+c], want[c]) {
						t.Fatalf("%s: key %d of db %d, cell %d: %x, over every factor %x", label, key, i, c, sc.dp[key*k+c], want[c])
					}
				}
				rows++
				if sc.deadAbove[key] > 0 {
					shifted++
				}
				if sc.deadAbove[key] >= k {
					emptied++
				}
				for _, h := range sc.live {
					if h == i {
						continue
					}
					sc.dpRowInto(got, key, i, h)
					dpRowAll(want, factors, i, h)
					for c := range want {
						if !sameBits(got[c], want[c]) {
							t.Fatalf("%s: key %d of db %d without db %d, cell %d: %x, over every factor %x", label, key, i, h, c, got[c], want[c])
						}
					}
					rows++
				}
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(12)
		k := 1 + trial%6
		if k >= n {
			k = n - 1
		}
		rds := gridRDs(rng, n, 2+rng.Intn(n-2), 2+rng.Intn(4), 8)
		sel := NewSelectionFromRDs(rds, Absolute, k)
		sel.ensureScratch()
		check("built", sel.scratch)
		// A shell copies the current grid (copyGrid) and repairs it after
		// its probe; the selection repairs its own.
		shell := new(Selection)
		shell.Reuse(sel)
		live := sel.scratch.live
		for x, c := range []*Selection{shell, sel} {
			h := live[x%len(live)]
			c.ApplyProbe(h, rds[h].Value(rng.Intn(rds[h].Len())))
			c.ensureScratch()
			check("collapsed", c.scratch)
		}
		shell.Release()
		sel.Release()
	}
	if shifted == 0 || emptied == 0 {
		t.Fatalf("%d rows: %d shifted, %d shifted out of the row: the impulses above a key were never met", rows, shifted, emptied)
	}
	t.Logf("%d rows, %d shifted, %d emptied", rows, shifted, emptied)
}

// assertFreshGrid compares the selection's scratch, field by field, with
// one built from the same RDs.
func assertFreshGrid(t *testing.T, label string, sel *Selection) {
	t.Helper()
	got, want := sel.scratch, new(selScratch)
	want.build(sel.rds, sel.k)
	n, k := want.n, want.k
	nK := want.keyStart[n]
	ints := func(name string, a, b []int) {
		for x := range b {
			if a[x] != b[x] {
				t.Fatalf("%s: %s[%d] = %d, fresh build %d", label, name, x, a[x], b[x])
			}
		}
	}
	floats := func(name string, a, b []float64) {
		for x := range b {
			if !sameBits(a[x], b[x]) {
				t.Fatalf("%s: %s[%d] = %x, fresh build %x", label, name, x, a[x], b[x])
			}
		}
	}
	if !got.valid || got.n != n || got.k != k {
		t.Fatalf("%s: scratch valid %v for (%d, %d), want (%d, %d)", label, got.valid, got.n, got.k, n, k)
	}
	ints("keyStart", got.keyStart, want.keyStart[:n+1])
	floats("keyVal", got.keyVal, want.keyVal[:nK])
	floats("keyEq", got.keyEq, want.keyEq[:nK])
	floats("gt", got.gt, want.gt[:nK*n])
	floats("less", got.less, want.less[:nK*n])
	ints("deadNeed", got.deadNeed, want.deadNeed[:nK])
	ints("deadAbove", got.deadAbove, want.deadAbove[:nK])
	if len(got.live) != len(want.live) {
		t.Fatalf("%s: live %v, fresh build %v", label, got.live, want.live)
	}
	ints("live", got.live, want.live)
	for i := range want.isLive[:n] {
		if got.isLive[i] != want.isLive[i] {
			t.Fatalf("%s: isLive[%d] = %v", label, i, got.isLive[i])
		}
	}
	floats("dp", got.dp, want.dp[:nK*k])
	floats("marg", got.marg, want.marg[:n])
}

// TestGridAfterProbeMatchesFreshBuild: a scratch carried through
// ApplyProbe equals one built from the probed state, whichever way it got
// there — the one-column repair after a single probe of a live database,
// the full rebuild after anything else.
func TestGridAfterProbeMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		rds := gridRDs(rng, n, n-2, 2+rng.Intn(4), 8)
		var live, cold []int
		for i, rd := range rds {
			if rd.isImpulse() {
				cold = append(cold, i)
			} else {
				live = append(live, i)
			}
		}
		other := rds[live[len(live)-1]]
		values := []float64{
			rds[live[0]].Value(rng.Intn(rds[live[0]].Len())), // on its support
			float64(rng.Intn(8)) + 0.5,                       // off every support
			other.Value(rng.Intn(other.Len())),               // another database's key
			0,                                                // a failed probe
			math.Inf(1),                                      // above every key
		}
		src := NewSelectionFromRDs(rds, Absolute, k)
		sel := NewSelectionFromRDs(rds, Absolute, k)
		sel.Best()
		assertFreshGrid(t, "unprobed", sel)
		step := func(label string, kept bool) {
			t.Helper()
			before := sel.Work().GridReuses
			sel.Best()
			if got := sel.Work().GridReuses - before; (got == 1) != kept {
				t.Fatalf("trial %d %s: grid kept %d times, want kept %v", trial, label, got, kept)
			}
			assertFreshGrid(t, label, sel)
		}
		for x, v := range values {
			sel.ApplyProbe(live[x], v)
			step("one live probe", true)
		}
		sel.ApplyProbe(cold[0], 3)
		step("cold impulse probed", false)
		sel.ApplyProbe(live[0], 5)
		step("live database probed again", false)
		sel.ApplyProbe(live[5], 2)
		sel.ApplyProbe(live[6], 2)
		step("two probes, no evaluation between", false)
		sel.ApplyProbe(live[7], 1)
		sel.Reuse(src)
		step("reuse after a probe", false)
		sel.ApplyProbe(live[1], 4)
		step("one live probe after reuse", true)
		sel.Release()
	}
}

// TestGridColumnsMatchKeyFormulas: every gt and less cell the column
// walks write equals prKeyGreater and prKeyLess, the per-cell binary
// searches they replaced, bit for bit — on fresh builds, after a
// repair, and on a copied grid. The RDs share an integer grid, so ties
// across databases fall on both sides of the index tie-break, and
// impulses sit at 0 and at +Inf, on both sides of a column.
func TestGridColumnsMatchKeyFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var cells, tieBelow, tieAbove, infKeys, infColumns int
	check := func(label string, sc *selScratch, rds []*RD) {
		t.Helper()
		n := sc.n
		for i := 0; i < n; i++ {
			for key := sc.keyStart[i]; key < sc.keyStart[i+1]; key++ {
				v := sc.keyVal[key]
				for j, rd := range rds {
					gt, less := prKeyGreater(rd, j, v, i), prKeyLess(rd, j, v, i)
					if !sameBits(sc.gt[key*n+j], gt) || !sameBits(sc.less[key*n+j], less) {
						t.Fatalf("%s: key (%v, %d) against db %d (%v): gt %x less %x, the formulas %x %x",
							label, v, i, j, rd, sc.gt[key*n+j], sc.less[key*n+j], gt, less)
					}
					cells++
					switch eq := rd.prEq(v); {
					case eq > 0 && j < i:
						tieBelow++
					case eq > 0 && j > i:
						tieAbove++
					}
					if math.IsInf(v, 1) {
						infKeys++
					}
					if rd.isImpulse() && math.IsInf(rd.Value(0), 1) {
						infColumns++
					}
				}
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		rds := gridRDs(rng, n, 2+rng.Intn(n-2), 2+rng.Intn(5), 8)
		for i, rd := range rds {
			if rd.isImpulse() && rng.Intn(4) == 0 {
				rds[i] = Impulse(math.Inf(1))
			}
		}
		sel := NewSelectionFromRDs(rds, Absolute, k)
		sel.ensureScratch()
		check("built", sel.scratch, sel.rds)
		shell := new(Selection)
		shell.Reuse(sel)
		check("copied", shell.scratch, shell.rds)
		live := slices.Clone(sel.scratch.live)
		for x, c := range []*Selection{shell, sel} {
			h := live[x%len(live)]
			other := rds[live[(x+1)%len(live)]]
			for _, v := range []float64{
				rds[h].Value(rng.Intn(rds[h].Len())), // on its support
				other.Value(rng.Intn(other.Len())),   // another database's key
				float64(rng.Intn(8)) + 0.5,           // off every support
				0,                                    // a failed probe
				math.Inf(1),                          // above every key
			}[trial%5 : trial%5+1] {
				c.ApplyProbe(h, v)
			}
			c.ensureScratch()
			if c.Work().GridReuses != 1 {
				t.Fatalf("trial %d: the probe rebuilt the grid", trial)
			}
			check("collapsed", c.scratch, c.rds)
		}
		shell.Release()
		sel.Release()
	}
	if tieBelow == 0 || tieAbove == 0 || infKeys == 0 || infColumns == 0 {
		t.Fatalf("%d cells: %d ties below, %d above, %d at +Inf keys, %d against +Inf impulses; want each met", cells, tieBelow, tieAbove, infKeys, infColumns)
	}
	t.Logf("%d cells: %d ties below, %d above, %d at +Inf keys, %d against +Inf impulses", cells, tieBelow, tieAbove, infKeys, infColumns)
}

// TestBaseSearchReuse: evaluate answers from the scratch's last search
// only while that search was the current state's base search. After
// Rank, after a hypothesis, after a probe and after Reuse it returns
// the set and E[Cor] of a selection evaluated afresh, and with nothing
// between two evaluations the second scores no set.
func TestBaseSearchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	moved := 0
	for trial := 0; trial < 80; trial++ {
		n := 6 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		metric := Metric(trial % 2)
		rds := gridRDs(rng, n, n-2, 2+rng.Intn(4), 8)
		sel := NewSelectionFromRDs(rds, metric, k)
		check := func(label string) {
			t.Helper()
			set, e := sel.evaluate()
			fresh := NewSelectionFromRDs(sel.rds, metric, k)
			want, wantE := fresh.evaluate()
			if !slices.Equal(set, want) || !sameBits(e, wantE) {
				t.Fatalf("trial %d %s: evaluate %v %v, afresh %v %v", trial, label, set, e, want, wantE)
			}
			fresh.Release()
		}
		base, _ := sel.BestView()
		base = slices.Clone(base)
		before := sel.Work().Sets
		check("again")
		if sets := sel.Work().Sets - before; sets != 0 {
			t.Fatalf("trial %d: the second evaluation of one state scored %d sets", trial, sets)
		}
		if _, _, err := (Greedy{}).Rank(sel, 0.9, 1); err != nil {
			t.Fatal(err)
		}
		check("after Rank")
		// A hypothesis whose best set is not the state's, when there is one.
		live := sel.scratch.live
		h, vi := live[0], 0
	find:
		for _, c := range live {
			for x := 0; x < sel.rds[c].Len(); x++ {
				if set, _ := sel.bestIf(c, x); !slices.Equal(set, base) {
					h, vi = c, x
					moved++
					break find
				}
			}
		}
		sel.BestView()
		sel.bestIf(h, vi)
		check("after bestIf")
		sel.BestView()
		sel.ApplyProbe(h, sel.rds[h].Value(vi))
		check("after ApplyProbe")
		src := NewSelectionFromRDs(rds, metric, k)
		src.BestView()
		sel.BestView()
		sel.Reuse(src)
		check("after Reuse")
		src.Release()
		sel.Release()
	}
	if moved == 0 {
		t.Fatal("no hypothesis moved the best set: the test cannot tell a stale answer")
	}
}

// TestPartialSearchCountsItsSet: a partial-metric search scores one set,
// the top k by marginal, and counts it as a set scored, in the base
// state and under a hypothesis alike.
func TestPartialSearchCountsItsSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sel := NewSelectionFromRDs(gridRDs(rng, 8, 4, 3, 10), Partial, 3)
	defer sel.Release()
	sel.BestView()
	if sets := sel.Work().Sets; sets != 1 {
		t.Fatalf("a partial base search counted %d sets, want 1", sets)
	}
	sel.bestIf(sel.scratch.live[0], 0)
	if sets := sel.Work().Sets; sets != 2 {
		t.Fatalf("after one partial hypothesis the selection counted %d sets, want 2", sets)
	}
}
