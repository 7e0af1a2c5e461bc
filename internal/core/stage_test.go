package core

import (
	"testing"
)

// stageLog collects observer calls for assertions.
type stageLog struct {
	stages map[string]int
	total  map[string]float64
}

func newStageLog() *stageLog {
	return &stageLog{stages: make(map[string]int), total: make(map[string]float64)}
}

func (l *stageLog) observe(stage string, seconds float64) {
	l.stages[stage]++
	l.total[stage] += seconds
}

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
	rd, err := NewRD(values, probs)
	if err != nil {
		panic(err)
	}
	return rd
}

func TestStageObserverDisabledIsFree(t *testing.T) {
	s := stageTestSelection()
	// Without an observer, BeginStage returns the inactive zero mark
	// and the pair allocates nothing — the hot path pays one nil check.
	if allocs := testing.AllocsPerRun(100, func() {
		m := s.BeginStage()
		s.EndStage(m, StageECorDP)
	}); allocs != 0 {
		t.Fatalf("disabled stage boundary allocates %v objects, want 0", allocs)
	}
	m := s.BeginStage()
	if m.active {
		t.Fatal("mark should be inactive without an observer")
	}
}

func TestStageObserverRecordsIntervals(t *testing.T) {
	s := stageTestSelection()
	log := newStageLog()
	s.WithStageObserver(log.observe)
	m := s.BeginStage()
	if !m.active {
		t.Fatal("mark should be active with an observer attached")
	}
	s.Best()
	s.EndStage(m, StageECorDP)
	if log.stages[StageECorDP] != 1 {
		t.Fatalf("stages = %v", log.stages)
	}
	if log.total[StageECorDP] < 0 {
		t.Fatalf("negative duration %v", log.total[StageECorDP])
	}
	// The zero mark stays a no-op even with an observer attached.
	s.EndStage(StageMark{}, StageRank)
	if log.stages[StageRank] != 0 {
		t.Fatal("zero mark must not report")
	}
}

// TestAProReportsStages runs the sequential APro loop with an observer
// and checks every algorithmic stage shows up with sane counts: one
// ecor_dp evaluation per loop entry, one rank and one probe per step.
func TestAProReportsStages(t *testing.T) {
	s := stageTestSelection()
	log := newStageLog()
	s.WithStageObserver(log.observe)
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
	if log.stages[StageRank] != probes || log.stages[StageProbe] != probes {
		t.Fatalf("rank/probe counts %d/%d, want %d each (stages=%v)",
			log.stages[StageRank], log.stages[StageProbe], probes, log.stages)
	}
	// One Best() per loop entry: initial + one after every step.
	if want := len(out.Steps) + 1; log.stages[StageECorDP] != want {
		t.Fatalf("ecor_dp count %d, want %d", log.stages[StageECorDP], want)
	}
}
