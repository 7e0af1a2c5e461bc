package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestAProOutcomeTrajectory pins down the observability contract of
// APro: Initial is the RD-based certainty before probing, every step
// carries the greedy usefulness that chose it and the certainty after
// it was applied, and the last step's CertaintyAfter equals the final
// certainty.
func TestAProOutcomeTrajectory(t *testing.T) {
	sel := NewSelectionFromRDs(example6RDs(), Absolute, 1)
	_, e0 := sel.Best()
	probe := func(i int) (float64, error) {
		// db1 turns out to hold 150 matching documents.
		if i == 0 {
			return 150, nil
		}
		return 130, nil
	}
	out, err := APro(sel, probe, &Greedy{}, 0.8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Initial != e0 {
		t.Errorf("Initial = %v, want pre-probe certainty %v", out.Initial, e0)
	}
	if len(out.Steps) == 0 {
		t.Fatal("expected at least one probe")
	}
	// Example 6: greedy probes db1 first, with usefulness 0.84.
	if out.Steps[0].DB != 0 {
		t.Errorf("first probe hit db%d, want db1", out.Steps[0].DB+1)
	}
	if math.Abs(out.Steps[0].Usefulness-0.84) > 1e-12 {
		t.Errorf("first probe usefulness = %v, want 0.84", out.Steps[0].Usefulness)
	}
	last := out.Steps[len(out.Steps)-1]
	if last.CertaintyAfter != out.Certainty {
		t.Errorf("last CertaintyAfter = %v, want final certainty %v", last.CertaintyAfter, out.Certainty)
	}
	// Replay the steps on a fresh selection: each recorded
	// CertaintyAfter must match the recomputed best-set certainty.
	replay := NewSelectionFromRDs(example6RDs(), Absolute, 1)
	for i, step := range out.Steps {
		replay.ApplyProbe(step.DB, step.Value)
		if _, e := replay.Best(); math.Abs(e-step.CertaintyAfter) > 1e-12 {
			t.Errorf("step %d: CertaintyAfter = %v, recomputed %v", i, step.CertaintyAfter, e)
		}
	}
}

// TestAProFailedProbeCertaintyAfter: a failed probe collapses its
// database to relevancy 0, so the failed step's CertaintyAfter is E[Cor]
// over that reduced testbed — here the surviving database wins outright.
func TestAProFailedProbeCertaintyAfter(t *testing.T) {
	rds := []*RD{
		MustRD([]float64{50, 100}, []float64{0.5, 0.5}),
		MustRD([]float64{60, 90}, []float64{0.5, 0.5}),
	}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	probe := func(i int) (float64, error) { return 0, fmt.Errorf("down") }
	out, err := APro(sel, probe, &Greedy{}, 0.99, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 1 || out.Steps[0].Err == nil {
		t.Fatalf("steps = %+v, want exactly the one failed probe", out.Steps)
	}
	if failed := out.Steps[0]; failed.CertaintyAfter != 1 || out.Certainty != 1 || len(out.Set) != 1 || out.Set[0] == failed.DB {
		t.Errorf("failed step %+v, outcome %+v; want the surviving database at certainty 1", failed, out)
	}
}

// TestAProInitialSetWhenThresholdAlreadyMet: a selection that already
// meets t records Initial == Certainty and no steps.
func TestAProInitialSetWhenThresholdAlreadyMet(t *testing.T) {
	rds := []*RD{Impulse(100), Impulse(10)}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	out, err := APro(sel, func(int) (float64, error) { return 0, errors.New("unreachable") }, &Greedy{}, 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 0 {
		t.Errorf("probed %d times despite met threshold", len(out.Steps))
	}
	if out.Initial != out.Certainty {
		t.Errorf("Initial = %v, Certainty = %v; must agree with zero probes", out.Initial, out.Certainty)
	}
}

// TestGreedyNextAllImpulses: when every unprobed RD is an impulse,
// Next reports ErrNoInformativeProbe — a probe could only confirm a
// known value, so there is no candidate worth choosing.
func TestGreedyNextAllImpulses(t *testing.T) {
	rds := []*RD{Impulse(100), Impulse(90)}
	sel := NewSelectionFromRDs(rds, Absolute, 1)
	g := &Greedy{}
	if _, err := g.Next(sel, 0.999); !errors.Is(err, ErrNoInformativeProbe) {
		t.Fatalf("Next over impulses: err = %v, want ErrNoInformativeProbe", err)
	}
}
