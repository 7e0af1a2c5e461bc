package core

import "time"

// Hot-path stage names reported through a Selection's StageObserver.
// They partition where a selection's compute goes, mirroring the
// algorithmic structure of the paper: deriving RDs from the learned
// error model, the Poisson-binomial DP behind E[Cor], ranking probe
// candidates by expected usefulness, and the live probe itself.
const (
	// StageRDConvolve is RD derivation for all databases
	// (Model.RDFor across NewSelection — estimate, classify, convolve
	// the ED into a relevancy distribution).
	StageRDConvolve = "rd_convolve"
	// StageECorDP is the best-set search / E[Cor] evaluation
	// (Selection.Best → BestSet → MembershipProb's DP), as invoked at
	// the top level of the APro loop.
	StageECorDP = "ecor_dp"
	// StageRank is probe-candidate selection (Policy.Next /
	// Ranker.Rank). For the greedy policy this includes the
	// per-outcome hypothetical Best() evaluations of Figure 13, which
	// is exactly why it dominates: usefulness is E[Cor] under every
	// outcome of every candidate probe.
	StageRank = "rank"
	// StageProbe is live probe I/O — for the sequential loop the probe
	// call itself, for the concurrent executor the time the loop
	// spends blocked waiting for the probe it needs next.
	StageProbe = "probe"
)

// StageObserver receives one completed hot-path stage: its name and
// the wall time it took. Implementations must be cheap and must not
// retain kv state per call; metaprobe binds an obs.StageRecorder here.
type StageObserver func(stage string, seconds float64)

// WithStageObserver attaches a stage observer and returns the
// selection for chaining. A nil observer (the default) makes
// BeginStage/EndStage single-branch no-ops, so disabled attribution
// costs one pointer comparison per stage boundary.
func (s *Selection) WithStageObserver(obs StageObserver) *Selection {
	s.stageObs = obs
	return s
}

// StageMark is an open stage interval returned by BeginStage.
type StageMark struct {
	start  time.Time
	active bool
}

// BeginStage opens a stage interval. Zero cost (one nil check) when
// no observer is attached.
func (s *Selection) BeginStage() StageMark {
	if s.stageObs == nil {
		return StageMark{}
	}
	return StageMark{start: time.Now(), active: true}
}

// EndStage closes a stage interval opened by BeginStage and reports
// it to the observer. Safe to call with the zero StageMark (no-op).
func (s *Selection) EndStage(m StageMark, stage string) {
	if !m.active || s.stageObs == nil {
		return
	}
	s.stageObs(stage, time.Since(m.start).Seconds())
}
