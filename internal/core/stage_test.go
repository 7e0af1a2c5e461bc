package core

import (
	"context"
	"testing"
	"time"
)

func stageTestSelection() *Selection {
	rds := []*RD{
		mustRD([]float64{1, 10}, []float64{0.5, 0.5}),
		mustRD([]float64{2, 8}, []float64{0.5, 0.5}),
		mustRD([]float64{0, 20}, []float64{0.5, 0.5}),
		mustRD([]float64{5, 6}, []float64{0.5, 0.5}),
	}
	return NewSelectionFromRDs(rds, Absolute, 2)
}

func mustRD(values, probs []float64) *RD {
	rd, err := newRD(values, probs)
	if err != nil {
		panic(err)
	}
	return rd
}

// TestStageObserverDisabledIsFree: with the tally off — every selection
// until TimeStages — a selection that probes allocates nothing and
// tallies nothing, so none of its stage boundaries read the clock.
func TestStageObserverDisabledIsFree(t *testing.T) {
	template, s := stageTestSelection(), stageTestSelection()
	probe := ProbeFunc(func(i int) (float64, error) { return template.Estimate(i), nil })
	var out Outcome
	run := func() {
		s.Reuse(template)
		if err := AProContext(context.Background(), s, probe, Greedy{}, 0.999999, -1, &out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: the scratch and the impulses
	if out.Probes() == 0 {
		t.Fatal("test needs at least one probe to cross every stage boundary")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a selection without the tally allocates %v objects, want 0", allocs)
	}
	if got := s.Stages(); got != (StageTimes{}) {
		t.Fatalf("the tally is off but holds %+v", got)
	}
}

// TestStageObserverRecordsIntervals: TimeStages turns the tally on and
// charges the fill to rd_convolve; a stage interval adds its time and
// one to its count; reuse and refill turn the tally off and clear it.
func TestStageObserverRecordsIntervals(t *testing.T) {
	s := stageTestSelection()
	s.TimeStages(3 * time.Millisecond)
	if got, want := s.Stages()[StageRDConvolve], (StageTime{Time: 3 * time.Millisecond, Count: 1}); got != want {
		t.Fatalf("rd_convolve = %+v, want %+v", got, want)
	}
	mark := s.stageStart()
	s.Best()
	s.stageEnd(StageECorDP, mark)
	if got := s.Stages()[StageECorDP]; got.Count != 1 || got.Time < 0 {
		t.Fatalf("ecor_dp = %+v, want one interval", got)
	}
	for name, clear := range map[string]func(){
		"Reuse": func() { s.Reuse(stageTestSelection()) },
		"reset": func() { s.reset("q", Absolute, 2, 4) },
	} {
		s.TimeStages(time.Millisecond)
		clear()
		if s.timeStages || s.Stages() != (StageTimes{}) {
			t.Errorf("after %s the tally is on=%v with %+v, want off and empty", name, s.timeStages, s.Stages())
		}
	}
}

// TestAProReportsStages runs the sequential APro loop with the tally on
// and checks every algorithmic stage shows up with sane counts: one
// ecor_dp evaluation per loop entry, one rank and one probe per step.
func TestAProReportsStages(t *testing.T) {
	s := stageTestSelection()
	s.TimeStages(0)
	probes := 0
	probe := func(i int) (float64, error) {
		probes++
		return s.Estimate(i), nil
	}
	out, err := APro(s, probe, &Greedy{}, 0.999999, -1)
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("test needs at least one probe to exercise all stages")
	}
	stages := s.Stages()
	if stages[StageRank].Count != probes || stages[StageProbe].Count != probes {
		t.Fatalf("rank/probe counts %d/%d, want %d each (stages=%+v)",
			stages[StageRank].Count, stages[StageProbe].Count, probes, stages)
	}
	// One Best() per loop entry: initial + one after every step.
	if want := len(out.Steps) + 1; stages[StageECorDP].Count != want {
		t.Fatalf("ecor_dp count %d, want %d", stages[StageECorDP].Count, want)
	}
}
