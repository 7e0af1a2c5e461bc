package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"metaprobe/internal/stats"
)

// example6RDs reconstructs the RDs of the paper's Example 6 / Figures
// 12–13: db1 = {50: 0.3, 100: 0.4, 150: 0.3}, db2 = {65: 0.4, 130:
// 0.6}. With these, the published usefulness values hold exactly:
// probing db1 yields expected usefulness 0.84, probing db2 yields 0.7,
// so the greedy policy probes db1 first.
func example6RDs() []*RD {
	return []*RD{
		MustRD([]float64{50, 100, 150}, []float64{0.3, 0.4, 0.3}),
		MustRD([]float64{65, 130}, []float64{0.4, 0.6}),
	}
}

func TestPaperExample6GreedyUsefulness(t *testing.T) {
	sel := NewSelectionFromRDs(example6RDs(), Absolute, 1)
	g := &Greedy{}
	u1 := g.usefulness(sel, 0)
	u2 := g.usefulness(sel, 1)
	if math.Abs(u1-0.84) > 1e-12 {
		t.Errorf("usefulness(db1) = %v, want 0.84", u1)
	}
	if math.Abs(u2-0.7) > 1e-12 {
		t.Errorf("usefulness(db2) = %v, want 0.7", u2)
	}
	next, err := g.Next(sel, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0 {
		t.Errorf("greedy picked db%d, want db1 (index 0)", next+1)
	}
}

// TestUsefulnessNeverBelowCurrent is the law-of-total-expectation
// property: the expected usefulness of any probe is at least the
// current best expected correctness.
func TestUsefulnessNeverBelowCurrent(t *testing.T) {
	rng := stats.NewRNG(55)
	g := &Greedy{}
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		rds := make([]*RD, n)
		for i := range rds {
			m := 1 + rng.Intn(3)
			vals := make([]float64, m)
			probs := make([]float64, m)
			for j := range vals {
				vals[j] = float64(rng.Intn(100)) + float64(j)*0.001
				probs[j] = rng.Float64() + 0.05
			}
			rds[i] = MustRD(vals, probs)
		}
		k := 1 + rng.Intn(2)
		for _, metric := range []Metric{Absolute, Partial} {
			sel := NewSelectionFromRDs(rds, metric, k)
			_, current := sel.Best()
			for i := 0; i < n; i++ {
				if u := g.usefulness(sel, i); u < current-1e-9 {
					t.Fatalf("trial %d metric %v: usefulness(%d) = %v < current %v", trial, metric, i, u, current)
				}
			}
		}
	}
}

func TestAProReachesThresholdOnPaperExample(t *testing.T) {
	// Example 6 setting: k=1, t=0.8. Initial best is db1 at 0.46 (db1
	// beats db2 with prob 0.3·1 + 0.4·0.4 = 0.46 vs db2's 0.54...).
	sel := NewSelectionFromRDs(example6RDs(), Absolute, 1)
	_, e0 := sel.Best()
	if e0 >= 0.8 {
		t.Fatalf("initial certainty %v unexpectedly above threshold", e0)
	}
	// Live probe: db1's actual relevancy turns out to be 150.
	probe := func(i int) (float64, error) {
		if i != 0 {
			t.Fatalf("expected first probe on db1, got db%d", i+1)
		}
		return 150, nil
	}
	out, err := APro(sel, probe, &Greedy{}, 0.8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reached {
		t.Fatalf("threshold not reached: %+v", out)
	}
	// r1 = 150 beats both outcomes of db2 → db1 returned with certainty 1.
	if len(out.Set) != 1 || out.Set[0] != 0 || out.Certainty != 1 {
		t.Errorf("outcome = %+v, want db1 at certainty 1", out)
	}
	if out.Probes() != 1 {
		t.Errorf("probes = %d, want 1", out.Probes())
	}
}

func TestAProNoProbingWhenThresholdMet(t *testing.T) {
	// Paper Section 3.4: with t = 0.7 and certainty 0.85, return
	// without probing.
	sel := NewSelectionFromRDs(paperRDs(), Absolute, 1)
	probe := func(i int) (float64, error) {
		t.Fatal("no probe should be issued")
		return 0, nil
	}
	out, err := APro(sel, probe, &Greedy{}, 0.7, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reached || out.Probes() != 0 || out.Set[0] != 1 {
		t.Errorf("outcome = %+v, want db2 with zero probes", out)
	}
}

func TestAProMaxProbesBudget(t *testing.T) {
	rds := []*RD{
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),
		MustRD([]float64{1, 99}, []float64{0.5, 0.5}),
		MustRD([]float64{2, 98}, []float64{0.5, 0.5}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	calls := 0
	probe := func(i int) (float64, error) {
		calls++
		return 50, nil
	}
	out, err := APro(sel, probe, &Greedy{}, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || out.Probes() != 1 {
		t.Errorf("calls = %d, probes = %d; want exactly 1", calls, out.Probes())
	}
}

func TestAProProbeFailuresAreSkipped(t *testing.T) {
	// db1 can observe 0, so once db0's failed probe collapses it to 0 the
	// tie (broken towards the lower index) keeps the answer uncertain and
	// the run has to go on to probe db1.
	rds := []*RD{
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),
		MustRD([]float64{0, 99}, []float64{0.5, 0.5}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	boom := errors.New("db down")
	probe := func(i int) (float64, error) {
		if i == 0 {
			return 0, boom
		}
		return 99, nil
	}
	out, err := APro(sel, probe, &ByEstimate{}, 0.99, -1)
	// ByEstimate picks the higher estimate (db0); the failed probe must
	// be recorded and the run continues with the other database.
	if out.Probes() != 1 {
		t.Errorf("successful probes = %d, want 1 (outcome %+v, err %v)", out.Probes(), out, err)
	}
	failed := 0
	for _, s := range out.Steps {
		if s.Err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("failed steps = %d, want 1", failed)
	}
	if err != nil || !out.Reached || len(out.Set) != 1 || out.Set[0] != 1 {
		t.Errorf("outcome = %+v, err %v; want db1 selected without error", out, err)
	}
}

// TestAProAllProbesFail pins the failed-probe rule end to end: every
// failure collapses its database to relevancy 0, is listed in Excluded
// with its error in ProbeErrs and a failed Step, and the selection over
// what is left is returned without an error.
func TestAProAllProbesFail(t *testing.T) {
	rds := []*RD{
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),
		MustRD([]float64{0, 99}, []float64{0.5, 0.5}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	down := fmt.Errorf("down")
	probe := func(i int) (float64, error) { return 0, down }
	out, err := APro(sel, probe, &ByEstimate{}, 0.99, -1)
	if err != nil {
		t.Fatalf("probe failures must degrade, not fail: %v", err)
	}
	if !out.Degraded || len(out.Excluded) != 2 || out.Excluded[0] != 0 || out.Excluded[1] != 1 {
		t.Errorf("Degraded = %v, Excluded = %v; want both databases excluded", out.Degraded, out.Excluded)
	}
	if len(out.ProbeErrs) != 2 || !errors.Is(out.ProbeErrs[0], down) || !errors.Is(out.ProbeErrs[1], down) {
		t.Errorf("ProbeErrs = %v, want both failures", out.ProbeErrs)
	}
	if out.Probes() != 0 || len(out.Steps) != 2 || out.Steps[0].Err == nil || out.Steps[1].Err == nil {
		t.Errorf("steps = %+v, want two failed steps", out.Steps)
	}
	for i := range rds {
		if rd := sel.RD(i); !rd.isImpulse() || rd.Value(0) != 0 {
			t.Errorf("db%d RD not collapsed to relevancy 0", i)
		}
	}
	if len(out.Set) != 1 {
		t.Errorf("best-effort set missing: %+v", out)
	}
}

func TestAProValidation(t *testing.T) {
	sel := NewSelectionFromRDs(paperRDs(), Absolute, 1)
	if _, err := APro(sel, nil, &Greedy{}, 0.5, -1); err == nil {
		t.Error("nil probe must fail")
	}
	probe := func(i int) (float64, error) { return 0, nil }
	if _, err := APro(sel, probe, nil, 0.5, -1); err == nil {
		t.Error("nil policy must fail")
	}
	if _, err := APro(sel, probe, &Greedy{}, 1.5, -1); err == nil {
		t.Error("threshold > 1 must fail")
	}
	if _, err := APro(sel, probe, &Greedy{}, -0.1, -1); err == nil {
		t.Error("negative threshold must fail")
	}
	probed := 0
	counting := func(i int) (float64, error) { probed++; return 0, nil }
	if _, err := APro(sel, counting, &Greedy{}, math.NaN(), -1); err == nil || probed != 0 {
		t.Errorf("NaN threshold: err %v after %d probes, want an error and none (no certainty is >= NaN)", err, probed)
	}
}

func TestRandomPolicy(t *testing.T) {
	sel := NewSelectionFromRDs(example6RDs(), Absolute, 1)
	r := &Random{RNG: stats.NewRNG(3)}
	seen := map[int]bool{}
	for i := 0; i < 30; i++ {
		next, err := r.Next(sel, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if sel.isProbed(next) {
			t.Fatal("random policy returned probed database")
		}
		seen[next] = true
	}
	if !seen[0] || !seen[1] {
		t.Error("random policy never explored both databases")
	}
	sel.ApplyProbe(0, 50)
	sel.ApplyProbe(1, 65)
	if _, err := r.Next(sel, 0.9); err == nil {
		t.Error("exhausted selection must error")
	}
}

func TestByEstimatePolicy(t *testing.T) {
	rds := []*RD{Impulse(10), Impulse(100), Impulse(50)}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	p := ByEstimate{}
	first, err := p.Next(sel, 0.9)
	if err != nil || first != 1 {
		t.Errorf("first = %d, %v; want 1", first, err)
	}
	sel.ApplyProbe(1, 100)
	second, err := p.Next(sel, 0.9)
	if err != nil || second != 2 {
		t.Errorf("second = %d, %v; want 2", second, err)
	}
}

func TestMaxEntropyPolicy(t *testing.T) {
	rds := []*RD{
		Impulse(50), // entropy 0
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),          // ln 2
		MustRD([]float64{0, 50, 100}, []float64{0.4, 0.3, 0.3}), // > ln 2
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	p := MaxEntropy{}
	got, err := p.Next(sel, 0.9)
	if err != nil || got != 2 {
		t.Errorf("max-entropy picked %d, %v; want 2", got, err)
	}
}

// TestOptimalPolicyNeverWorseThanGreedy runs both policies over random
// small instances against simulated truths drawn from the RDs and
// checks the optimal policy's average probe count is not worse.
func TestOptimalPolicyNeverWorseThanGreedy(t *testing.T) {
	rng := stats.NewRNG(21)
	var totalGreedy, totalOptimal int
	for trial := 0; trial < 25; trial++ {
		n := 3
		rds := make([]*RD, n)
		truths := make([]float64, n)
		for i := range rds {
			vals := []float64{float64(rng.Intn(50)), float64(50 + rng.Intn(50))}
			probs := []float64{0.2 + 0.6*rng.Float64(), 0.2}
			rds[i] = MustRD(vals, probs)
			// Draw the truth from the RD itself (well-specified model).
			if rng.Float64() < rds[i].Prob(0) {
				truths[i] = rds[i].Value(0)
			} else {
				truths[i] = rds[i].Value(rds[i].Len() - 1)
			}
		}
		probe := func(i int) (float64, error) { return truths[i], nil }
		t1 := 0.9

		selG := NewSelectionFromRDs(rds, Absolute, 1)
		outG, err := APro(selG, probe, &Greedy{}, t1, -1)
		if err != nil {
			t.Fatal(err)
		}
		selO := NewSelectionFromRDs(rds, Absolute, 1)
		outO, err := APro(selO, probe, &Optimal{}, t1, -1)
		if err != nil {
			t.Fatal(err)
		}
		totalGreedy += outG.Probes()
		totalOptimal += outO.Probes()
	}
	if totalOptimal > totalGreedy+3 {
		t.Errorf("optimal used %d probes vs greedy %d; optimal should not be much worse", totalOptimal, totalGreedy)
	}
}

func TestOptimalPolicySizeLimit(t *testing.T) {
	rds := make([]*RD, 10)
	for i := range rds {
		rds[i] = MustRD([]float64{0, 1}, []float64{0.5, 0.5})
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	o := &Optimal{}
	if _, err := o.Next(sel, 0.9); err == nil {
		t.Error("optimal policy must refuse large testbeds")
	}
}

func TestGreedyCostAware(t *testing.T) {
	// Two symmetric databases; db1 is 10x cheaper to probe, so the
	// cost-aware greedy must pick it.
	rds := []*RD{
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),
		MustRD([]float64{0.5, 100.5}, []float64{0.5, 0.5}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	costs := []float64{1, 10}
	g := &Greedy{Cost: func(i int) float64 { return costs[i] }}
	next, err := g.Next(sel, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0 {
		t.Errorf("cost-aware greedy picked %d, want 0", next)
	}
	// Flip the costs: now db2 should win (usefulness is symmetric
	// enough that cost dominates).
	costs = []float64{10, 1}
	next, err = g.Next(sel, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 {
		t.Errorf("cost-aware greedy picked %d, want 1", next)
	}
}

func TestGreedySkipsImpulses(t *testing.T) {
	rds := []*RD{
		Impulse(50),
		MustRD([]float64{0, 100}, []float64{0.5, 0.5}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	g := &Greedy{}
	next, err := g.Next(sel, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if next != 1 {
		t.Errorf("greedy picked impulse db %d; probing it is useless", next)
	}
}

func TestGreedyRankMatchesNext(t *testing.T) {
	// Rank's head must equal Next on every reachable state, and the
	// full ranking must be the order repeated Next calls would visit
	// (the structural guarantee the lookahead's Rank(·, t, 1) on a
	// hypothetical state relies on).
	rng := stats.NewRNG(91)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		rds := make([]*RD, n)
		for i := range rds {
			m := 1 + rng.Intn(3)
			vals := make([]float64, m)
			probs := make([]float64, m)
			for j := range vals {
				vals[j] = float64(rng.Intn(50)) + float64(j)*0.01
				probs[j] = rng.Float64() + 0.05
			}
			rds[i] = MustRD(vals, probs)
		}
		sel := NewSelectionFromRDs(rds, Absolute, 1)
		g := &Greedy{}
		dbs, us, err := g.Rank(sel, 0.99, -1)
		if err != nil {
			t.Fatal(err)
		}
		// Rank returns views the next Rank on sel overwrites.
		dbs, us = append([]int(nil), dbs...), append([]float64(nil), us...)
		if len(dbs) == 0 || len(dbs) != len(us) {
			t.Fatalf("trial %d: Rank returned %d dbs, %d usefulness", trial, len(dbs), len(us))
		}
		next, err := g.Next(sel, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if next != dbs[0] {
			t.Fatalf("trial %d: Next = %d, Rank head = %d", trial, next, dbs[0])
		}
		// The loop records the head's usefulness on its step.
		out, err := APro(NewSelectionFromRDs(rds, Absolute, 1), func(i int) (float64, error) { return rds[i].Value(0), nil }, g, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Initial < 1 && (len(out.Steps) != 1 || out.Steps[0].DB != dbs[0] || out.Steps[0].Usefulness != us[0]) {
			t.Errorf("trial %d: first step %+v, want db %d at usefulness %v", trial, out.Steps, dbs[0], us[0])
		}
		// A truncated ranking must be a prefix of the full one (single-
		// value RDs are impulses, so some trials rank fewer than 2).
		if len(dbs) >= 2 {
			head, headUs, err := g.Rank(sel, 0.99, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(head) != 2 || head[0] != dbs[0] || head[1] != dbs[1] {
				t.Errorf("trial %d: Rank(m=2) = %v, want prefix of %v", trial, head, dbs)
			}
			if headUs[0] != us[0] || headUs[1] != us[1] {
				t.Errorf("trial %d: Rank(m=2) usefulness %v, want prefix of %v", trial, headUs, us)
			}
		}
	}
}

// TestGreedyRankAllImpulses: when every unprobed RD is an impulse, a
// probe cannot change E[Cor], so ranking reports ErrNoInformativeProbe
// instead of suggesting informationless backend traffic.
func TestGreedyRankAllImpulses(t *testing.T) {
	rds := []*RD{Impulse(50), Impulse(60)}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	g := &Greedy{}
	dbs, us, err := g.Rank(sel, 0.99, 3)
	if !errors.Is(err, ErrNoInformativeProbe) {
		t.Fatalf("Rank over impulses: err = %v, want ErrNoInformativeProbe", err)
	}
	if dbs != nil || us != nil {
		t.Errorf("Rank over impulses = %v, %v; want nil, nil", dbs, us)
	}
}

// TestAProStopsOnUninformativeProbes: an APro run whose remaining
// unprobed RDs are all impulses terminates gracefully — Reached=false,
// best available set, zero probes issued — rather than probing known
// values.
func TestAProStopsOnUninformativeProbes(t *testing.T) {
	rds := []*RD{Impulse(50), Impulse(60), Impulse(70)}
	sel := NewSelectionFromRDs(rds, Absolute, 2)
	probes := 0
	probe := func(int) (float64, error) { probes++; return 0, nil }
	// Threshold 1+ε is unreachable even with perfect knowledge... but
	// t must be ≤ 1, so use a partial-metric state whose certainty
	// stays below t: impulses give certainty 1 for the true top set,
	// so instead verify via an unreachable mixed state below.
	out, err := APro(sel, probe, &Greedy{}, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Impulse-only states have certainty exactly 1, so the threshold is
	// met with zero probes here; the sentinel path needs uncertainty
	// that probing cannot fix — an unprobeable database.
	if probes != 0 || !out.Reached {
		t.Fatalf("impulse-only state: probes=%d reached=%v", probes, out.Reached)
	}

	rds = []*RD{
		mustRD([]float64{40, 80}, []float64{0.5, 0.5}),
		Impulse(60),
		Impulse(50),
	}
	sel = NewSelectionFromRDs(rds, Absolute, 1)
	// The only informative probe target is gone without its RD having
	// collapsed — a state the loop itself never produces (a failed probe
	// collapses to 0), set up directly to pin the policy sentinel.
	sel.probed[0], sel.unprobedStale = true, true
	out, err = APro(sel, probe, &Greedy{}, 0.999, -1)
	if err != nil {
		t.Fatal(err)
	}
	if probes != 0 {
		t.Errorf("issued %d informationless probes, want 0", probes)
	}
	if out.Reached {
		t.Error("Reached = true; threshold is unreachable without probing db 0")
	}
	if len(out.Set) != 1 {
		t.Errorf("best available set = %v, want a 1-set", out.Set)
	}
}
