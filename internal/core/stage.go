package core

import "time"

// Stage names one hot-path stage of a selection. The stages partition
// where a selection's compute goes, mirroring the algorithmic structure
// of the paper: deriving RDs from the learned error model, the
// Poisson-binomial DP behind E[Cor], ranking probe candidates by
// expected usefulness, and the live probe itself. They are numbered in
// the order of their names.
type Stage int

const (
	// StageECorDP is the best-set search / E[Cor] evaluation
	// (Selection.BestView: the decision memo, else the scratch's
	// marginal DP and set search), as invoked at the top level of the
	// APro loop.
	StageECorDP Stage = iota
	// StageProbe is live probe I/O — for the sequential loop the probe
	// call itself, for the concurrent executor the time the loop spends
	// blocked waiting for the probe it needs next.
	StageProbe
	// StageRank is probe-candidate selection (Policy.Next /
	// Ranker.Rank). For the greedy policy this includes the
	// per-outcome hypothetical best-set evaluations of Figure 13, which
	// is exactly why it dominates: usefulness is E[Cor] under every
	// outcome of every candidate probe.
	StageRank
	// StageRDConvolve is RD derivation for all databases (filling the
	// selection — estimate, classify, look up or convolve the ED into a
	// relevancy distribution). It runs before there is a selection to
	// tally on, so its caller times it and hands it to TimeStages.
	StageRDConvolve
)

var stageNames = [...]string{"ecor_dp", "probe", "rank", "rd_convolve"}

// String is the stage's name in metric labels and span events.
func (st Stage) String() string { return stageNames[st] }

// StageTime is one stage's share of a selection: the wall time of its
// intervals and how many there were.
type StageTime struct {
	Time  time.Duration
	Count int
}

// StageTimes is a selection's stage tally, indexed by Stage.
type StageTimes [len(stageNames)]StageTime

// TimeStages turns the stage tally on until the selection is next
// filled or reused, and charges fill — the time it took to fill the
// selection — to StageRDConvolve. Off, the default, a stage boundary
// reads no clock.
func (s *Selection) TimeStages(fill time.Duration) {
	s.timeStages = true
	s.stages[StageRDConvolve] = StageTime{Time: fill, Count: 1}
}

// Stages returns the stage tally since TimeStages; all zero when the
// tally is off.
func (s *Selection) Stages() StageTimes { return s.stages }

// stageStart opens a stage interval: the current time with the tally on,
// the zero time without reading the clock otherwise.
func (s *Selection) stageStart() time.Time {
	if !s.timeStages {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd charges the interval opened at start to st.
func (s *Selection) stageEnd(st Stage, start time.Time) {
	if s.timeStages {
		s.stages[st].Time += time.Since(start)
		s.stages[st].Count++
	}
}
