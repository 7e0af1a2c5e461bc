package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The incremental scratch path (selstate.go) must be indistinguishable
// from the from-scratch reference evaluation: identical selected sets
// and certainties within 1e-9 on every state APro can visit. These
// tests pin the two paths together over randomized RDs, both metrics
// and random probe orders; the noScratch flag forces the reference.

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
	rd, err := NewRD(values, probs)
	if err != nil {
		panic(err)
	}
	return rd
}

// assertSameBest compares the two paths' best-set evaluation on the
// current state.
func assertSameBest(t *testing.T, trial int, stage string, ref, inc *Selection) {
	t.Helper()
	refSet, refE := ref.Best()
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
	refM := ref.Marginals()
	incM := inc.Marginals()
	for i := range refM {
		if math.Abs(refM[i]-incM[i]) > diffTol {
			t.Fatalf("trial %d %s: marginal[%d] differs: ref %v inc %v", trial, stage, i, refM[i], incM[i])
		}
	}
}

// TestIncrementalMatchesReference is the differential property test:
// random RDs, both metrics, random probe orders — after every probe
// the incremental path must select the identical set with certainty
// and marginals within 1e-9 of the reference, and greedy usefulness
// (the hypothesis overlay) must agree on every unprobed database.
func TestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
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
		ref.noScratch = true
		inc := NewSelectionFromRDs(rds, metric, k)

		assertSameBest(t, trial, "initial", ref, inc)

		gRef, gInc := &Greedy{}, &Greedy{}
		order := rng.Perm(n)
		for step, i := range order {
			for _, u := range inc.UnprobedView() {
				uRef := gRef.Usefulness(ref, u)
				uInc := gInc.Usefulness(inc, u)
				if math.Abs(uRef-uInc) > diffTol {
					t.Fatalf("trial %d step %d: usefulness(%d) differs: ref %v inc %v",
						trial, step, u, uRef, uInc)
				}
			}
			v := rds[i].Value(rng.Intn(rds[i].Len()))
			ref.ApplyProbe(i, v)
			inc.ApplyProbe(i, v)
			assertSameBest(t, trial, "after probe", ref, inc)
		}
		inc.Release()
	}
}

// TestAProDifferentialTrajectory runs full APro loops on both paths
// with identical deterministic probes and requires the trajectories to
// match step for step: same probe choices, same sets, certainties
// within 1e-9, same Reached.
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
		probe := func(i int) (float64, error) { return truth[i], nil }

		ref := NewSelectionFromRDs(rds, metric, k)
		ref.noScratch = true
		inc := NewSelectionFromRDs(rds, metric, k)

		outRef, errRef := APro(ref, probe, &Greedy{}, thr, -1)
		outInc, errInc := APro(inc, probe, &Greedy{}, thr, -1)
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

// TestOptimalPolicyThroughHypothesisAPI: the optimal policy's
// expectimin — nested probed hypotheses — must agree between the two
// paths (the recursion runs on the reference path below depth 1, but
// the depth-0/1 evaluations ride the scratch).
func TestOptimalPolicyThroughHypothesisAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		ref := NewSelectionFromRDs(rds, Partial, 1)
		ref.noScratch = true
		inc := NewSelectionFromRDs(rds, Partial, 1)
		o := &Optimal{}
		iRef, errRef := o.Next(ref, 0.95)
		iInc, errInc := o.Next(inc, 0.95)
		inc.Release()
		if (errRef == nil) != (errInc == nil) {
			t.Fatalf("trial %d: errors differ: ref %v inc %v", trial, errRef, errInc)
		}
		if iRef != iInc {
			t.Fatalf("trial %d: optimal choice differs: ref %d inc %d", trial, iRef, iInc)
		}
		// The hypothesis scopes must have fully unwound.
		if inc.hypDepth != 0 {
			t.Fatalf("trial %d: hypothesis depth %d left open", trial, inc.hypDepth)
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
	return AProInto(sel, func(i int) (float64, error) { return c.truth[i], nil }, policy, 0.95, -1, out)
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
// Reuse + AProInto cycle over a template selection must stay within
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
	probe := func(i int) (float64, error) { return truth[i], nil }
	run := func() {
		sel.Reuse(template)
		if err := AProInto(sel, probe, g, 0.95, -1, &out); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm-up: grow buffers, allocate owned impulses
	}
	if allocs := testing.AllocsPerRun(50, run); allocs > 2 {
		t.Errorf("steady-state Reuse+AProInto allocates %.1f/op, want ≤ 2", allocs)
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
