package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"metaprobe/internal/leakcheck"
)

func never() bool { return false }

// bruteCertainNext is what certainNext has to compute, written the slow
// way: every support value of head's RD is applied to a fresh
// reference-path copy of s, and the loop's next two decisions — stop?
// else which database? — are read off it. borderline reports a state on
// which the two evaluations may legitimately differ: a hypothetical
// certainty within round-off of t.
func bruteCertainNext(s *Selection, head int, t float64) (next int, ok, borderline bool) {
	rd := s.RD(head)
	next, ok = -1, true
	for vi := 0; vi < rd.Len(); vi++ {
		ref := NewSelectionFromRDs(s.rds, s.Metric, s.K)
		ref.noScratch = true
		copy(ref.probed, s.probed)
		ref.ApplyProbe(head, rd.Value(vi))
		_, e := ref.Best()
		if math.Abs(e-t) <= diffTol {
			borderline = true
		}
		if e >= t {
			return 0, false, borderline
		}
		db, err := Greedy{}.Next(ref, t)
		if err != nil || (next >= 0 && db != next) {
			ok = false
		}
		next = db
	}
	return next, ok, borderline
}

// walkCertainNext follows the greedy trajectory of one RD set, and at
// every state on it holds certainNext to the brute force. It reports how
// many states it compared and how many had a certain next probe.
func walkCertainNext(t *testing.T, id string, la *lookahead, rds []*RD, truth []float64, metric Metric, k int, thr float64) (states, certain int) {
	t.Helper()
	s := NewSelectionFromRDs(rds, metric, k)
	defer s.Release()
	for {
		if _, e := s.Best(); e >= thr {
			return
		}
		ranked, _, err := Greedy{}.Rank(s, thr, 1)
		if err != nil {
			return
		}
		head := ranked[0]
		wantNext, wantOK, borderline := bruteCertainNext(s, head, thr)
		_, e := s.Best()
		work, rdsBefore := s.Work(), fmt.Sprint(s.rds)
		next, ok := la.certainNext(s, Greedy{}, head, thr, never)
		if s.Work() != work {
			t.Fatalf("%s: lookahead work leaked into RankWork: %+v → %+v", id, work, s.Work())
		}
		if _, after := s.Best(); after != e || fmt.Sprint(s.rds) != rdsBefore {
			t.Fatalf("%s: certainNext changed the state it was asked about", id)
		}
		if !borderline {
			states++
			if ok != wantOK || (ok && next != wantNext) {
				t.Fatalf("%s after %d probes, head %d: certainNext = (%d, %v), brute force (%d, %v)",
					id, len(s.rds)-len(s.UnprobedView()), head, next, ok, wantNext, wantOK)
			}
			if ok {
				certain++
			}
		}
		s.ApplyProbe(head, truth[head])
	}
}

// TestCertainNextMatchesBruteForce: on randomised RD sets and on the
// states of the golden fixture's trajectories, certainNext names a next
// database exactly when applying every support value to a fresh
// reference-path selection stops nowhere and picks that database
// everywhere.
func TestCertainNextMatchesBruteForce(t *testing.T) {
	leakcheck.Check(t)
	la := lookaheadPool.Get().(*lookahead)
	defer la.release()
	states, certain := 0, 0
	add := func(s, c int) { states, certain = states+s, certain+c }

	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(6)
		rds, truth := make([]*RD, n), make([]float64, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
			truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
		}
		metric := Metric(trial % 2)
		add(walkCertainNext(t, fmt.Sprintf("trial %d", trial), la, rds, truth, metric, 1+rng.Intn(n-1), 0.5+0.5*rng.Float64()))
	}
	if states < 300 || certain < 30 {
		t.Errorf("random sets compared %d states, %d with a certain next probe: too few to mean anything", states, certain)
	}

	names, sets, truths := goldenRDSets(t)
	for ci, rds := range sets {
		// One operating point per case, cycling through the fixture's.
		metric := Metric(ci % 2)
		k := 1 + ci%min(3, len(rds)-1)
		thr := []float64{0.5, 0.8, 0.95}[ci%3]
		add(walkCertainNext(t, names[ci], la, rds, truths[ci], metric, k, thr))
	}
	t.Logf("%d states compared, %d with a certain next probe", states, certain)
}

// countingGreedy is Greedy counting its Rank calls.
type countingGreedy struct {
	Greedy
	ranks *int
}

func (g countingGreedy) Rank(s *Selection, t float64, m int) ([]int, []float64, error) {
	*g.ranks++
	return g.Greedy.Rank(s, t, m)
}

// certainState searches seeded random RD sets for a state whose head has
// at least minOutcomes support values and a certain next probe: a
// lookahead on it runs through every outcome.
func certainState(t *testing.T, la *lookahead, minOutcomes int) (s *Selection, head int, thr float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 4 + rng.Intn(5)
		rds := make([]*RD, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
		}
		s, thr = NewSelectionFromRDs(rds, Absolute, 2), 0.9
		ranked, _, err := Greedy{}.Rank(s, thr, 1)
		if err == nil && s.RD(ranked[0]).Len() >= minOutcomes {
			if _, ok := la.certainNext(s, Greedy{}, ranked[0], thr, never); ok {
				return s, ranked[0], thr
			}
		}
		s.Release()
	}
	t.Fatal("no random state with a certain next probe")
	return nil, 0, 0
}

// TestCertainNextAbandonsWithinOneOutcome: whenever the head's answer
// arrives, the lookahead evaluates no further outcome — it returns
// before the next Rank — and counts itself abandoned; left alone on a
// warm shell it allocates nothing.
func TestCertainNextAbandonsWithinOneOutcome(t *testing.T) {
	la := lookaheadPool.Get().(*lookahead)
	defer la.release()
	s, head, thr := certainState(t, la, 3)
	defer s.Release()
	n := s.RD(head).Len()

	// answered is asked before each of the n stop hypotheses and before
	// each of the n ranks: 2n times on a lookahead that runs to the end.
	for at := 1; at <= 2*n; at++ {
		ranks, asked, ranksWhenAnswered := 0, 0, -1
		before := s.Ahead()
		_, ok := la.certainNext(s, countingGreedy{ranks: &ranks}, head, thr, func() bool {
			if asked++; asked == at {
				ranksWhenAnswered = ranks
				return true
			}
			return false
		})
		after := s.Ahead()
		if ok || after.Abandoned != before.Abandoned+1 || after.Certain != before.Certain {
			t.Fatalf("answer at check %d: ok %v, ahead %+v → %+v", at, ok, before, after)
		}
		if ranks != ranksWhenAnswered {
			t.Fatalf("answer at check %d came after %d ranks, yet the lookahead ran %d", at, ranksWhenAnswered, ranks)
		}
		if wantRanks := max(0, at-n-1); ranks != wantRanks {
			t.Fatalf("answer at check %d: %d ranks, want %d", at, ranks, wantRanks)
		}
	}

	if allocs := testing.AllocsPerRun(50, func() { la.certainNext(s, Greedy{}, head, thr, never) }); allocs != 0 {
		t.Errorf("a steady-state lookahead allocates %.0f objects, want 0", allocs)
	}
}

// scriptedOverlapper is an Overlapper over a truth table that records
// what the loop asked of it: the heads it started, and as (head, next)
// every probe started while a head was out. Its probes "take" latency
// and are never answered early, so an offered lookahead always runs to
// its verdict.
type scriptedOverlapper struct {
	truth   []float64
	latency time.Duration
	started []int
	early   [][2]int
	headOut bool
}

func (p *scriptedOverlapper) Latency(int) time.Duration { return p.latency }
func (p *scriptedOverlapper) Start(_ context.Context, i int) {
	if p.headOut {
		p.early = append(p.early, [2]int{p.started[len(p.started)-1], i})
		return
	}
	p.headOut = true
	p.started = append(p.started, i)
}
func (p *scriptedOverlapper) Answered(int) bool { return false }
func (p *scriptedOverlapper) Drain()            {}
func (p *scriptedOverlapper) Wait(_ context.Context, i int) (float64, error) {
	p.headOut = false
	return p.truth[i], nil
}

// TestAProLookaheadGate: the loop thinks behind a probe only when the
// prober's latency dwarfs the step's rank, only with two probes of
// budget left, and only for a Ranker; when it does, every certain
// verdict starts next's probe while head's is out and the next step's
// head is that next. The outcome is the inline one in every case.
func TestAProLookaheadGate(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(23))
	total := AheadWork{}
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(5)
		rds, truth := make([]*RD, n), make([]float64, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
			truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
		}
		k, thr := 1+rng.Intn(2), 0.6+0.4*rng.Float64()
		want, err := APro(NewSelectionFromRDs(rds, Absolute, k), func(i int) (float64, error) { return truth[i], nil }, Greedy{}, thr, -1)
		if err != nil {
			t.Fatal(err)
		}
		run := func(p *scriptedOverlapper, policy Policy, maxProbes int) (Outcome, AheadWork) {
			t.Helper()
			s := NewSelectionFromRDs(rds, Absolute, k)
			defer s.Release()
			var out Outcome
			if err := AProContext(context.Background(), s, p, policy, thr, maxProbes, &out); err != nil {
				t.Fatal(err)
			}
			return out, s.Ahead()
		}

		eager := &scriptedOverlapper{truth: truth, latency: time.Hour}
		got, ahead := run(eager, Greedy{}, -1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: outcome with lookahead %+v, inline %+v", trial, got, want)
		}
		if started := ahead.Certain + ahead.Disagreed + ahead.Stops + ahead.Abandoned; started != len(eager.started) || ahead.Abandoned != 0 || ahead.Certain != len(eager.early) {
			t.Fatalf("trial %d: %d heads started, %d early starts, ahead %+v", trial, len(eager.started), len(eager.early), ahead)
		}
		for _, pair := range eager.early {
			// On-support truths: what was certain is what came next.
			step := 0
			for step < len(got.Steps) && got.Steps[step].DB != pair[0] {
				step++
			}
			if step+1 >= len(got.Steps) || got.Steps[step+1].DB != pair[1] {
				t.Fatalf("trial %d: started early %v, steps %+v", trial, pair, got.Steps)
			}
		}
		total.Certain += ahead.Certain
		total.Disagreed += ahead.Disagreed
		total.Stops += ahead.Stops

		// A backend no slower than the rank, one probe of budget, a policy
		// that cannot rank: nothing is started.
		for name, c := range map[string]struct {
			p         *scriptedOverlapper
			policy    Policy
			maxProbes int
		}{
			"fast backend": {&scriptedOverlapper{truth: truth}, Greedy{}, -1},
			"one probe":    {&scriptedOverlapper{truth: truth, latency: time.Hour}, Greedy{}, 1},
			"no ranker":    {&scriptedOverlapper{truth: truth, latency: time.Hour}, ByEstimate{}, -1},
		} {
			_, ahead := run(c.p, c.policy, c.maxProbes)
			if len(c.p.started) != 0 || len(c.p.early) != 0 || ahead != (AheadWork{}) {
				t.Fatalf("trial %d, %s: started %v, early %v, ahead %+v", trial, name, c.p.started, c.p.early, ahead)
			}
		}
	}
	if total.Certain == 0 || total.Disagreed == 0 || total.Stops == 0 {
		t.Errorf("80 trials never reached every verdict: %+v", total)
	}
	t.Logf("lookaheads over 80 trials: %+v", total)
}

// TestInlineProberIsNoOverlapper: a ProbeFunc answers on the loop's
// goroutine, so there is nothing to think behind and APro counts no
// lookahead.
func TestInlineProberIsNoOverlapper(t *testing.T) {
	var p Prober = inlineProber(func(int) (float64, error) { return 0, nil })
	if _, ok := p.(Overlapper); ok {
		t.Fatal("the inline prober offers lookahead")
	}
	s := NewSelectionFromRDs(example6RDs(), Absolute, 1)
	if _, err := APro(s, func(int) (float64, error) { return 100, nil }, Greedy{}, 0.99, -1); err != nil {
		t.Fatal(err)
	}
	if s.Ahead() != (AheadWork{}) {
		t.Fatalf("inline APro counted lookaheads: %+v", s.Ahead())
	}
}
