package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// The incremental scratch path (selstate.go) must be indistinguishable
// from the from-scratch reference evaluation (reference_test.go):
// identical selected sets and certainties within 1e-9 on every state
// APro can visit. These tests pin the two together over randomized RDs,
// both metrics and random probe orders.

const diffTol = 1e-9

// randTestRD builds a random RD with smallSupport..smallSupport+4
// support points drawn from a coarse grid, so value ties across
// databases (the tie-breaking machinery) actually occur.
func randTestRD(rng *rand.Rand) *RD {
	nVals := 1 + rng.Intn(5)
	seen := map[float64]bool{}
	values := make([]float64, 0, nVals)
	for len(values) < nVals {
		v := float64(rng.Intn(20)) * 5
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	probs := make([]float64, len(values))
	total := 0.0
	for i := range probs {
		probs[i] = 0.1 + rng.Float64()
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	rd, err := newRD(values, probs)
	if err != nil {
		panic(err)
	}
	return rd
}

// assertSameBest compares the reference's best-set evaluation of ref's
// state with inc's.
func assertSameBest(t *testing.T, trial int, stage string, ref, inc *Selection) {
	t.Helper()
	refSet, refE := refBest(ref)
	incSet, incE := inc.Best()
	if len(refSet) != len(incSet) {
		t.Fatalf("trial %d %s: set sizes differ: ref %v inc %v", trial, stage, refSet, incSet)
	}
	for i := range refSet {
		if refSet[i] != incSet[i] {
			t.Fatalf("trial %d %s: sets differ: ref %v inc %v (E ref %v inc %v)",
				trial, stage, refSet, incSet, refE, incE)
		}
	}
	if math.Abs(refE-incE) > diffTol {
		t.Fatalf("trial %d %s: certainty differs: ref %v inc %v", trial, stage, refE, incE)
	}
	for i, m := range inc.Marginals() {
		if want := membershipProb(ref.rds, i, ref.k); math.Abs(want-m) > diffTol {
			t.Fatalf("trial %d %s: marginal[%d] differs: ref %v inc %v", trial, stage, i, want, m)
		}
	}
}

// TestIncrementalMatchesReference is the differential property test:
// random RDs, both metrics, random probe orders — after every probe
// the incremental path must select the identical set with certainty
// and marginals within 1e-9 of the reference, and greedy usefulness
// (the hypothesis overlay) must agree on every unprobed database.
func TestIncrementalMatchesReference(t *testing.T) {
	checkDifferential(t, 42, func(rng *rand.Rand, rd *RD) float64 {
		return rd.Value(rng.Intn(rd.Len()))
	})
}

// oddAnswers are probe answers no RD's support holds: the infinities,
// and −0, which ties with every 0 in the grid. (No NaN: the APro loop
// folds only answers that pass CheckAnswer.)
var oddAnswers = []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// TestIncrementalMatchesReferenceOnOddAnswers is the differential test
// with probes that answer ±Inf or −0 half the time.
func TestIncrementalMatchesReferenceOnOddAnswers(t *testing.T) {
	checkDifferential(t, 43, func(rng *rand.Rand, rd *RD) float64 {
		if rng.Intn(2) == 0 {
			return oddAnswers[rng.Intn(len(oddAnswers))]
		}
		return rd.Value(rng.Intn(rd.Len()))
	})
}

// checkDifferential runs the differential property test on 150 states
// seeded by seed, each probe answering answer(rng, the probed RD).
func checkDifferential(t *testing.T, seed int64, answer func(*rand.Rand, *RD) float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(6)
		k := 1 + rng.Intn(n-1)
		metric := Partial
		if trial%2 == 0 {
			metric = Absolute
		}
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		ref := NewSelectionFromRDs(rds, metric, k)
		inc := NewSelectionFromRDs(rds, metric, k)

		assertSameBest(t, trial, "initial", ref, inc)

		order := rng.Perm(n)
		for step, i := range order {
			for _, u := range inc.UnprobedView() {
				uRef := refUsefulness(ref, u)
				uInc := Greedy{}.usefulness(inc, u)
				if math.Abs(uRef-uInc) > diffTol {
					t.Fatalf("trial %d step %d: usefulness(%d) differs: ref %v inc %v",
						trial, step, u, uRef, uInc)
				}
			}
			v := answer(rng, rds[i])
			ref.ApplyProbe(i, v)
			inc.ApplyProbe(i, v)
			assertSameBest(t, trial, fmt.Sprintf("after probing db%d = %v", i, v), ref, inc)
		}
		inc.Release()
	}
}

// TestAProDifferentialTrajectory runs full APro loops on the engine and
// on the reference (refAPro) with identical deterministic probes and
// requires the trajectories to match step for step: same probe choices,
// same sets, certainties within 1e-9, same Reached.
func TestAProDifferentialTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		k := 1 + rng.Intn(n-1)
		metric := Partial
		if trial%2 == 0 {
			metric = Absolute
		}
		rds := make([]*RD, n)
		truth := make([]float64, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
			truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
		}
		thr := 0.5 + 0.5*rng.Float64()

		ref := NewSelectionFromRDs(rds, metric, k)
		inc := NewSelectionFromRDs(rds, metric, k)

		outRef, errRef := refAPro(ref, func(i int) float64 { return truth[i] }, thr)
		outInc, errInc := APro(inc, func(i int) (float64, error) { return truth[i], nil }, &Greedy{}, thr, -1)
		inc.Release()
		if (errRef == nil) != (errInc == nil) {
			t.Fatalf("trial %d: errors differ: ref %v inc %v", trial, errRef, errInc)
		}
		if outRef.Reached != outInc.Reached {
			t.Fatalf("trial %d: Reached differs: ref %v inc %v", trial, outRef.Reached, outInc.Reached)
		}
		if len(outRef.Steps) != len(outInc.Steps) {
			t.Fatalf("trial %d: step counts differ: ref %d inc %d",
				trial, len(outRef.Steps), len(outInc.Steps))
		}
		for s := range outRef.Steps {
			if outRef.Steps[s].DB != outInc.Steps[s].DB {
				t.Fatalf("trial %d step %d: probe choice differs: ref %d inc %d",
					trial, s, outRef.Steps[s].DB, outInc.Steps[s].DB)
			}
			if math.Abs(outRef.Steps[s].Usefulness-outInc.Steps[s].Usefulness) > diffTol {
				t.Fatalf("trial %d step %d: usefulness differs: ref %v inc %v",
					trial, s, outRef.Steps[s].Usefulness, outInc.Steps[s].Usefulness)
			}
		}
		if len(outRef.Set) != len(outInc.Set) {
			t.Fatalf("trial %d: final sets differ: ref %v inc %v", trial, outRef.Set, outInc.Set)
		}
		for i := range outRef.Set {
			if outRef.Set[i] != outInc.Set[i] {
				t.Fatalf("trial %d: final sets differ: ref %v inc %v", trial, outRef.Set, outInc.Set)
			}
		}
		if math.Abs(outRef.Certainty-outInc.Certainty) > diffTol {
			t.Fatalf("trial %d: final certainty differs: ref %v inc %v",
				trial, outRef.Certainty, outInc.Certainty)
		}
	}
}

// optimalReference is the optimal policy's expectimin as it read before
// it recursed on selection shells: every state "probe dbᵢ, see its vi-th
// value" made by swapping rds[i] for an impulse, evaluated from scratch
// by bestSet, and nothing kept from one state to the next. It returns
// the pick and its expected number of probes, the pick included.
func optimalReference(rds []*RD, probed []bool, metric Metric, k int, t float64) (int, float64) {
	best, bestCost := -1, 0.0
	for i, p := range probed {
		if p {
			continue
		}
		cost := 1 + remainingReference(rds, probed, metric, k, t, i)
		if best < 0 || cost < bestCost-probEpsilon {
			best, bestCost = i, cost
		}
	}
	return best, bestCost
}

func remainingReference(rds []*RD, probed []bool, metric Metric, k int, t float64, i int) float64 {
	rd := rds[i]
	total := 0.0
	for vi := 0; vi < rd.Len(); vi++ {
		rds[i], probed[i] = Impulse(rd.Value(vi)), true
		if _, e := bestSet(metric, rds, k); e < t {
			bestCost := -1.0
			for j, p := range probed {
				if p {
					continue
				}
				if c := 1 + remainingReference(rds, probed, metric, k, t, j); bestCost < 0 || c < bestCost {
					bestCost = c
				}
			}
			if bestCost >= 0 {
				total += rd.Prob(vi) * bestCost
			}
		}
	}
	rds[i], probed[i] = rd, false
	return total
}

// TestOptimalMatchesUnmemoizedReference: the optimal policy's pick and
// expected cost, recursed on selection shells and kept per state, are
// the bits of the unmemoized recursion over bestSet — on random states
// of 3–6 databases, some partly probed, under both metrics. A state key
// that drops the observed values, or the database just probed, merges
// states whose costs differ and fails it.
func TestOptimalMatchesUnmemoizedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials = 60
	deep := 0 // trials where some outcome of the first probe falls short of t
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(4)
		k := 1 + rng.Intn(n-1)
		metric := Partial
		if trial%2 == 0 {
			metric = Absolute
		}
		thr := []float64{0.8, 0.9, 0.95}[rng.Intn(3)]
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		s := NewSelectionFromRDs(rds, metric, k)
		// At most four databases left to probe keep the reference's tree
		// small; a fifth of the smaller states start one probe in.
		probes := max(0, n-4)
		if probes == 0 && n > 3 && rng.Intn(5) == 0 {
			probes = 1
		}
		for _, i := range rng.Perm(n)[:probes] {
			rd := s.RD(i)
			s.ApplyProbe(i, rd.Value(rng.Intn(rd.Len())))
		}
		refRDs := append([]*RD(nil), s.rds...)
		refProbed := append([]bool(nil), s.probed...)
		wantDB, wantCost := optimalReference(refRDs, refProbed, metric, k, thr)
		if wantCost > 1 {
			deep++
		}

		o := &Optimal{}
		gotDB, gotCost, err := o.next(s, thr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotDB != wantDB || gotCost != wantCost {
			t.Fatalf("trial %d (n=%d k=%d %v t=%v, %d probed): optimal picks %d at %v probes, the reference %d at %v",
				trial, n, k, metric, thr, probes, gotDB, gotCost, wantDB, wantCost)
		}
		if i, err := o.Next(s, thr); err != nil || i != gotDB {
			t.Fatalf("trial %d: Next = %d, %v; next picked %d", trial, i, err, gotDB)
		}
		// The state asked about is left as it was.
		if !reflect.DeepEqual(s.rds, refRDs) || !reflect.DeepEqual(s.probed, refProbed) {
			t.Fatalf("trial %d: Next changed the selection it was asked about", trial)
		}
		s.Release()
	}
	if deep < trials/2 {
		t.Fatalf("only %d of %d trials recurse past the first probe", deep, trials)
	}
}

// TestHypothesisMatchesAShell: a hypothesis is a probe that did not
// happen. On random states, partly probed, under both metrics and at
// k ∈ {1, 3}, bestIf(i, vi) for every unprobed database i and every
// support index vi picks the set, with E[Cor] within 1e-9, that a shell
// of the state with i probed at its vi-th value picks. It leaves the
// state's RDs, probed set and memo node as they were, counts nothing but
// the sets it scores and the DP rows and swapped tails it computes, and
// allocates nothing.
func TestHypothesisMatchesAShell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shell := &Selection{}
	defer shell.Release()
	hypotheses := 0
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		probes := rng.Perm(n)[:rng.Intn(n-2)]
		for _, metric := range []Metric{Absolute, Partial} {
			for _, k := range []int{1, 3} {
				memo := newTestMemo()
				s := memo.attach(NewSelectionFromRDs(rds, metric, k))
				for _, i := range probes {
					s.ApplyProbe(i, rds[i].Value(rng.Intn(rds[i].Len())))
				}
				s.BestView() // the grid is current from here on
				rdsBefore, probedBefore := slices.Clone(s.rds), slices.Clone(s.probed)
				node, nodes := s.memo, memo.nodes()
				unprobed := slices.Clone(s.UnprobedView())
				for _, i := range unprobed {
					for vi := 0; vi < s.RD(i).Len(); vi++ {
						id := fmt.Sprintf("trial %d, %v, k=%d, db%d = %v", trial, metric, k, i, s.RD(i).Value(vi))
						before := s.Work()
						set, e := s.bestIf(i, vi)
						set = slices.Clone(set)
						after := s.Work()
						after.Sets, after.SetsShared = before.Sets, before.SetsShared
						after.RowBuilds, after.RowLive = before.RowBuilds, before.RowLive
						after.TailRebuilds, after.TailDeconvolutions = before.TailRebuilds, before.TailDeconvolutions
						if after != before {
							t.Fatalf("%s: bestIf moved a count other than the sets and rows: %+v → %+v", id, before, s.Work())
						}
						shell.Reuse(s)
						shell.memoRoot, shell.memo = nil, nil
						shell.ApplyProbe(i, s.RD(i).Value(vi))
						want, wantE := shell.BestView()
						if !slices.Equal(set, want) || math.Abs(e-wantE) > diffTol {
							t.Fatalf("%s: bestIf picks %v at %v, the shell %v at %v", id, set, e, want, wantE)
						}
						if !slices.Equal(s.rds, rdsBefore) || !slices.Equal(s.probed, probedBefore) || s.memo != node || memo.nodes() != nodes {
							t.Fatalf("%s: bestIf changed the state it was asked about", id)
						}
						hypotheses++
					}
				}
				allocs := testing.AllocsPerRun(5, func() {
					for _, i := range unprobed {
						for vi := 0; vi < s.RD(i).Len(); vi++ {
							s.bestIf(i, vi)
						}
					}
				})
				if allocs != 0 {
					t.Fatalf("trial %d, %v, k=%d: the hypotheses allocate %.0f objects, want 0", trial, metric, k, allocs)
				}
				s.Release()
			}
		}
	}
	t.Logf("%d hypotheses matched their shells", hypotheses)
}

// TestMarginalsReadTheScratch: on a selection freshly filled from a
// version, and again after a probe, Marginals are membershipProb's bits
// — they come from the scratch the evaluation builds, which reproduces
// that arithmetic operation for operation.
func TestMarginalsReadTheScratch(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	ver := NewModelVersion(model, "train", time.Now())
	shell := &Selection{}
	check := func(stage string, s *Selection) {
		t.Helper()
		got := s.Marginals()
		if s.scratch == nil || !s.scratch.valid {
			t.Fatalf("%s: Marginals did not go through the scratch", stage)
		}
		for i, m := range got {
			if want := membershipProb(s.rds, i, s.k); m != want {
				t.Fatalf("%s: marginal[%d] = %v, membershipProb %v", stage, i, m, want)
			}
		}
	}
	for _, metric := range []Metric{Absolute, Partial} {
		for _, k := range []int{1, 3} {
			for _, q := range test[:20] {
				s := ver.FillSelection(shell, q.String(), q.NumTerms(), metric, k)
				check(q.String()+" (filled)", s)
				d := s.UnprobedView()[0]
				s.ApplyProbe(d, s.RD(d).Value(0))
				check(q.String()+" (probed)", s)
				shell.Release()
			}
		}
	}
}

// TestScratchPoolConcurrent hammers the pooled scratch from many
// goroutines (run with -race): each runs independent APro selections
// with Release between queries, so pooled state crosses goroutines.
func TestScratchPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 25; q++ {
				n := 3 + rng.Intn(4)
				k := 1 + rng.Intn(n-1)
				rds := make([]*RD, n)
				truth := make([]float64, n)
				for i := range rds {
					rds[i] = randTestRD(rng)
					truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
				}
				sel := NewSelectionFromRDs(rds, Partial, k)
				probe := func(i int) (float64, error) { return truth[i], nil }
				if _, err := APro(sel, probe, &Greedy{}, 0.9, -1); err != nil {
					t.Error(err)
				}
				sel.Release()
			}
		}(int64(w))
	}
	wg.Wait()
}

// sharedPolicyCase is one independent selection of the shared-policy
// tests: seeded RDs, the relevancies its probes observe, k and metric.
type sharedPolicyCase struct {
	rds    []*RD
	truth  []float64
	k      int
	metric Metric
}

func sharedPolicyCases(seed int64, count int) []sharedPolicyCase {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]sharedPolicyCase, count)
	for c := range cases {
		n := 4 + rng.Intn(4)
		sc := sharedPolicyCase{k: 1 + rng.Intn(3), metric: Metric(c % 2)}
		for i := 0; i < n; i++ {
			rd := randTestRD(rng)
			sc.rds = append(sc.rds, rd)
			sc.truth = append(sc.truth, rd.Value(rng.Intn(rd.Len())))
		}
		cases[c] = sc
	}
	return cases
}

func (c sharedPolicyCase) run(policy Policy, sel *Selection, out *Outcome) error {
	return AProContext(context.Background(), sel, ProbeFunc(func(i int) (float64, error) { return c.truth[i], nil }), policy, 0.95, -1, out)
}

// TestSharedPolicyAcrossGoroutines: a probe policy is an immutable
// value, so one Greedy — cost-blind or cost-aware — serving many
// concurrent selections must give each exactly the trajectory it gets
// alone. Run with -race: any per-selection state hidden on the policy
// is a data race here and a wrong trajectory without the detector.
func TestSharedPolicyAcrossGoroutines(t *testing.T) {
	const workers, perWorker = 8, 200
	policies := map[string]Policy{
		"greedy":            &Greedy{},
		"cost-aware greedy": &Greedy{Cost: func(i int) float64 { return float64(1 + i%3) }},
	}
	for name, policy := range policies {
		cases := sharedPolicyCases(99, workers*perWorker)
		want := make([]Outcome, len(cases))
		for c, sc := range cases {
			if err := sc.run(policy, NewSelectionFromRDs(sc.rds, sc.metric, sc.k), &want[c]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for c := w; c < len(cases); c += workers {
					sc := cases[c]
					sel := NewSelectionFromRDs(sc.rds, sc.metric, sc.k)
					var got Outcome
					err := sc.run(policy, sel, &got)
					sel.Release()
					if err != nil {
						t.Errorf("%s case %d: %v", name, c, err)
						return
					}
					if !reflect.DeepEqual(got, want[c]) {
						t.Errorf("%s case %d: shared-policy trajectory %+v, alone %+v", name, c, got, want[c])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkSelectParallel runs full selections from many goroutines
// through one shared policy, four goroutines per P so the sharing is
// real at -cpu 1 too: run it at -cpu 1,2,4 to read the scaling.
func BenchmarkSelectParallel(b *testing.B) {
	cases := sharedPolicyCases(5, 64)
	templates := make([]*Selection, len(cases))
	for c, sc := range cases {
		templates[c] = NewSelectionFromRDs(sc.rds, sc.metric, sc.k)
	}
	policy := &Greedy{}
	b.SetParallelism(4)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var out Outcome
		sel := &Selection{}
		for c := 0; pb.Next(); c++ {
			sc := cases[c%len(cases)]
			sel.Reuse(templates[c%len(cases)])
			if err := sc.run(policy, sel, &out); err != nil {
				b.Error(err)
				return
			}
			sel.Release()
		}
	})
}

// TestSteadyStateSelectionDoesNotAllocate: after warm-up, a full
// Reuse + AProContext cycle over a template selection must stay within
// the 2 allocs/op budget TestHotPathAllocCaps holds the benchmark to.
func TestSteadyStateSelectionDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8
	rds := make([]*RD, n)
	truth := make([]float64, n)
	for i := range rds {
		rds[i] = randTestRD(rng)
		truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
	}
	template := NewSelectionFromRDs(rds, Absolute, 3)
	sel := NewSelectionFromRDs(rds, Absolute, 3)
	g := &Greedy{}
	var out Outcome
	probe := ProbeFunc(func(i int) (float64, error) { return truth[i], nil })
	run := func() {
		sel.Reuse(template)
		if err := AProContext(context.Background(), sel, probe, g, 0.95, -1, &out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm-up: grow buffers, allocate owned impulses
	}
	if allocs := testing.AllocsPerRun(50, run); allocs > 2 {
		t.Errorf("steady-state Reuse+AProContext allocates %.1f/op, want ≤ 2", allocs)
	}
}

// TestAProReachedSurfacesProbeErrors: a selection that reaches the
// threshold after a probe failed must still surface the failure —
// ProbeErrs, Excluded and the failed Step populated, Reached true — and
// return no error: probe failures degrade the answer, they do not fail
// it.
func TestAProReachedSurfacesProbeErrors(t *testing.T) {
	rds := []*RD{
		mustRD([]float64{10, 20}, []float64{0.5, 0.5}),
		mustRD([]float64{5, 15}, []float64{0.5, 0.5}),
		Impulse(0),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	down := errors.New("backend down")
	probe := func(i int) (float64, error) {
		if i == 0 {
			return 0, down
		}
		return 5, nil
	}
	out, err := APro(sel, probe, &Greedy{}, 0.9, -1)
	if err != nil {
		t.Fatalf("err = %v; a failed probe must not fail the selection", err)
	}
	if !out.Reached {
		t.Fatalf("Reached = false, certainty %v; want threshold met once db0 is excluded", out.Certainty)
	}
	if len(out.ProbeErrs) != 1 || !errors.Is(out.ProbeErrs[0], down) {
		t.Fatalf("ProbeErrs = %v, want the one probe failure", out.ProbeErrs)
	}
	if !out.Degraded || len(out.Excluded) != 1 || out.Excluded[0] != 0 {
		t.Fatalf("Degraded = %v, Excluded = %v; want db0 excluded", out.Degraded, out.Excluded)
	}
	if len(out.Steps) == 0 || out.Steps[0].DB != 0 || !errors.Is(out.Steps[0].Err, down) {
		t.Fatalf("Steps = %+v, want the failed probe of db0 first", out.Steps)
	}
	if len(out.Set) != 1 || out.Set[0] != 1 {
		t.Fatalf("Set = %v, want the live db1", out.Set)
	}
}
