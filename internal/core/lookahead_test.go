package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"metaprobe/internal/leakcheck"
)

func never() bool { return false }

// bruteProbableNext is what probableNext has to compute, written the
// slow way: every support value of head's RD is applied to a fresh
// reference-path copy of s, the loop's next two decisions — stop? else
// which database? — are read off it, and the value's probability goes to
// the database picked, or to no database when the loop stops. next is the
// database with the most mass and ok whether that is at least 1 −
// maxDissent. certain replays the lookahead's order — outcomes that do
// not stop, most probable first — and reports whether, when next's mass
// reaches 1 − maxDissent, no outcome had been seen to stop or to lead
// elsewhere. tooManyStops reports whether the outcomes that stop carry
// more than maxDissent of the mass. borderline reports a state on which
// the two evaluations may legitimately differ: a hypothetical certainty
// within round-off of t, or a mass within round-off of 1 − maxDissent or
// of maxDissent.
func bruteProbableNext(s *Selection, head int, t float64) (next int, ok, certain, tooManyStops, borderline bool) {
	rd := s.RD(head)
	need := 1 - maxDissent
	// The database each outcome leads to: -1 where the rank fails, -2
	// where the loop stops.
	picks := make([]int, rd.Len())
	mass := map[int]float64{}
	stopped := 0.0
	next = -1
	for vi := range picks {
		ref := NewSelectionFromRDs(s.rds, s.Metric, s.K)
		ref.noScratch = true
		copy(ref.probed, s.probed)
		ref.ApplyProbe(head, rd.Value(vi))
		_, e := ref.Best()
		if math.Abs(e-t) <= diffTol {
			borderline = true
		}
		if e >= t {
			picks[vi] = -2
			stopped += rd.Prob(vi)
			continue
		}
		picks[vi] = -1
		if db, err := (Greedy{}).Next(ref, t); err == nil {
			picks[vi] = db
			if mass[db] += rd.Prob(vi); next < 0 || mass[db] > mass[next] {
				next = db
			}
		}
	}
	tooManyStops = stopped > maxDissent
	if math.Abs(stopped-maxDissent) <= diffTol {
		borderline = true
	}
	if next < 0 {
		return -1, false, false, tooManyStops, borderline
	}
	ok = mass[next] >= need
	if math.Abs(mass[next]-need) <= diffTol {
		borderline = true
	}
	order := []int{}
	for vi, db := range picks {
		if db != -2 {
			order = append(order, vi)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return rd.Prob(order[a]) > rd.Prob(order[b]) })
	dissent, seen := stopped > 0, 0.0
	for _, vi := range order {
		dissent = dissent || picks[vi] != next
		if picks[vi] == next {
			seen += rd.Prob(vi)
		}
		if math.Abs(seen-need) <= diffTol {
			borderline = true
		}
		if seen >= need {
			return next, ok, !dissent, tooManyStops, borderline
		}
	}
	return next, ok, false, tooManyStops, borderline
}

// lookaheadVerdicts counts how often walkProbableNext saw each verdict.
type lookaheadVerdicts struct{ states, certain, probable, disagreed, stops int }

// walkProbableNext follows the greedy trajectory of one RD set, and at
// every state on it holds probableNext to the brute force: it starts a
// database exactly when the brute force gives it 1 − maxDissent of the
// mass, calls that certain exactly when the brute force's replay of its
// order saw no dissent, and blames stops exactly when the outcomes that
// stop carry more than maxDissent of the mass.
func walkProbableNext(t *testing.T, id string, la *lookahead, rds []*RD, truth []float64, metric Metric, k int, thr float64, v *lookaheadVerdicts) {
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
		wantNext, wantOK, wantCertain, wantStops, borderline := bruteProbableNext(s, head, thr)
		_, e := s.Best()
		work, rdsBefore, before := s.Work(), fmt.Sprint(s.rds), s.Ahead()
		next, ok := la.probableNext(s, Greedy{}, head, thr, never)
		if s.Work() != work {
			t.Fatalf("%s: lookahead work leaked into RankWork: %+v → %+v", id, work, s.Work())
		}
		if _, after := s.Best(); after != e || fmt.Sprint(s.rds) != rdsBefore {
			t.Fatalf("%s: probableNext changed the state it was asked about", id)
		}
		after := s.Ahead()
		certain, probable := after.Certain-before.Certain, after.Probable-before.Probable
		disagreed, stops := after.Disagreed-before.Disagreed, after.Stops-before.Stops
		if certain+probable+disagreed+stops != 1 || after.Abandoned != before.Abandoned || ok != (certain+probable == 1) {
			t.Fatalf("%s: one lookahead moved the verdicts %+v → %+v and returned ok = %v", id, before, after, ok)
		}
		if !borderline {
			v.states++
			if ok != wantOK || (ok && next != wantNext) || (ok && (certain == 1) != wantCertain) {
				t.Fatalf("%s after %d probes, head %d: probableNext = (%d, %v), verdicts %+v → %+v; brute force (%d, %v), certain %v",
					id, len(s.rds)-len(s.UnprobedView()), head, next, ok, before, after, wantNext, wantOK, wantCertain)
			}
			if (stops == 1) != wantStops {
				t.Fatalf("%s: the lookahead's verdict is stops = %v, the brute force's stopping outcomes carry more than maxDissent = %v", id, stops == 1, wantStops)
			}
			v.certain += certain
			v.probable += probable
			v.disagreed += disagreed
			v.stops += stops
		}
		s.ApplyProbe(head, truth[head])
	}
}

// TestProbableNextMatchesBruteForce: on randomised RD sets and on the
// states of the golden fixture's trajectories, probableNext names a next
// database exactly when applying every support value to a fresh
// reference-path selection gives that database at least 1 − maxDissent
// of the RD's mass, outcomes that stop counting against it.
func TestProbableNextMatchesBruteForce(t *testing.T) {
	leakcheck.Check(t)
	la := lookaheadPool.Get().(*lookahead)
	defer la.release()
	var v lookaheadVerdicts

	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 600; trial++ {
		n := 3 + rng.Intn(6)
		rds, truth := make([]*RD, n), make([]float64, n)
		for i := range rds {
			rds[i] = randTestRD(rng)
			truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
		}
		metric := Metric(trial % 2)
		walkProbableNext(t, fmt.Sprintf("trial %d", trial), la, rds, truth, metric, 1+rng.Intn(n-1), 0.5+0.5*rng.Float64(), &v)
	}
	if v.states < 600 || v.certain < 60 || v.probable < 20 || v.disagreed < 60 || v.stops < 60 {
		t.Errorf("random sets compared %+v: too few of some verdict to mean anything", v)
	}

	names, sets, truths := goldenRDSets(t)
	for ci, rds := range sets {
		// One operating point per case, cycling through the fixture's.
		metric := Metric(ci % 2)
		k := 1 + ci%min(3, len(rds)-1)
		thr := []float64{0.5, 0.8, 0.95}[ci%3]
		walkProbableNext(t, names[ci], la, rds, truths[ci], metric, k, thr, &v)
	}
	t.Logf("states compared and their verdicts: %+v", v)
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

// startingState searches seeded random RD sets for a state whose head
// has no outcome that stops and whose lookahead starts a probe after at
// least minRanks ranks. It returns how many ranks that takes.
func startingState(t *testing.T, la *lookahead, minRanks int) (s *Selection, head int, thr float64, ranks int) {
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
		if err == nil {
			ranks = 0
			_, ok := la.probableNext(s, countingGreedy{ranks: &ranks}, ranked[0], thr, never)
			if ok && ranks >= minRanks && len(la.order) == s.RD(ranked[0]).Len() {
				return s, ranked[0], thr, ranks
			}
		}
		s.Release()
	}
	t.Fatal("no random state whose lookahead starts a probe after enough ranks")
	return nil, 0, 0, 0
}

// TestProbableNextAbandonsWithinOneOutcome: whenever the head's answer
// arrives, the lookahead evaluates no further outcome — it returns
// before the next Rank — and counts itself abandoned; left alone on a
// warm shell it allocates nothing.
func TestProbableNextAbandonsWithinOneOutcome(t *testing.T) {
	la := lookaheadPool.Get().(*lookahead)
	defer la.release()
	s, head, thr, full := startingState(t, la, 3)
	defer s.Release()
	n := s.RD(head).Len()

	// answered is asked before each of the n stop hypotheses and before
	// each rank: n + full times on a lookahead that runs to its verdict.
	for at := 1; at <= n+full; at++ {
		ranks, asked, ranksWhenAnswered := 0, 0, -1
		before := s.Ahead()
		_, ok := la.probableNext(s, countingGreedy{ranks: &ranks}, head, thr, func() bool {
			if asked++; asked == at {
				ranksWhenAnswered = ranks
				return true
			}
			return false
		})
		after := s.Ahead()
		if ok || after.Abandoned != before.Abandoned+1 || after.Certain != before.Certain || after.Probable != before.Probable {
			t.Fatalf("answer at check %d: ok %v, ahead %+v → %+v", at, ok, before, after)
		}
		if ranks != ranksWhenAnswered {
			t.Fatalf("answer at check %d came after %d ranks, yet the lookahead ran %d", at, ranksWhenAnswered, ranks)
		}
		if wantRanks := max(0, at-n-1); ranks != wantRanks {
			t.Fatalf("answer at check %d: %d ranks, want %d", at, ranks, wantRanks)
		}
	}

	if allocs := testing.AllocsPerRun(50, func() { la.probableNext(s, Greedy{}, head, thr, never) }); allocs != 0 {
		t.Errorf("a steady-state lookahead allocates %.0f objects, want 0", allocs)
	}
}

// scriptedOverlapper is an Overlapper over a truth table that records
// what the loop asked of it: the heads it started, as (head, next) every
// probe started while a head was out, and which of those were never
// waited for — what Drain cancels. Its probes "take" latency and are
// never answered early, so an offered lookahead always runs to its
// verdict.
type scriptedOverlapper struct {
	truth   []float64
	latency time.Duration
	started []int
	early   [][2]int
	pending map[int]bool
	headOut bool
}

func (p *scriptedOverlapper) Latency(int) time.Duration { return p.latency }
func (p *scriptedOverlapper) Start(_ context.Context, i int) {
	if p.headOut {
		p.early = append(p.early, [2]int{p.started[len(p.started)-1], i})
		if p.pending == nil {
			p.pending = map[int]bool{}
		}
		p.pending[i] = true
		return
	}
	p.headOut = true
	p.started = append(p.started, i)
}
func (p *scriptedOverlapper) Answered(int) bool { return false }
func (p *scriptedOverlapper) Drain()            {}
func (p *scriptedOverlapper) Wait(_ context.Context, i int) (float64, error) {
	p.headOut = false
	delete(p.pending, i)
	return p.truth[i], nil
}

// TestAProLookaheadGate: the loop thinks behind a probe only when the
// prober's latency dwarfs the step's rank, only with two probes of
// budget left, and only for a Ranker; when it does, every start made
// early is the database of a later step or is cancelled by Drain, and a
// certain verdict's is the very next step. The outcome is the inline one
// in every case.
func TestAProLookaheadGate(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(23))
	total := AheadWork{}
	wasted, startedEarly := 0, 0
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
		if started := ahead.Certain + ahead.Probable + ahead.Disagreed + ahead.Stops + ahead.Abandoned; started != len(eager.started) ||
			ahead.Abandoned != 0 || ahead.Certain+ahead.Probable != len(eager.early) {
			t.Fatalf("trial %d: %d heads started, %d early starts, ahead %+v", trial, len(eager.started), len(eager.early), ahead)
		}
		unpicked := map[int]bool{}
		nextStep := 0
		for _, pair := range eager.early {
			step := 0
			for step < len(got.Steps) && got.Steps[step].DB != pair[0] {
				step++
			}
			later := false
			for _, s := range got.Steps[step+1:] {
				later = later || s.DB == pair[1]
			}
			if !later {
				unpicked[pair[1]] = true
			}
			if step+1 < len(got.Steps) && got.Steps[step+1].DB == pair[1] {
				nextStep++
			}
		}
		if fmt.Sprint(unpicked) != fmt.Sprint(eager.pending) {
			t.Fatalf("trial %d: started early %v, steps %+v: never picked %v, left for Drain %v", trial, eager.early, got.Steps, unpicked, eager.pending)
		}
		// On-support truths: what was certain is what came next.
		if nextStep < ahead.Certain {
			t.Fatalf("trial %d: %d certain verdicts, %d early starts were the next step: %v, steps %+v", trial, ahead.Certain, nextStep, eager.early, got.Steps)
		}
		wasted += len(unpicked)
		startedEarly += len(eager.early)
		total.Certain += ahead.Certain
		total.Probable += ahead.Probable
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
	if total.Certain == 0 || total.Probable == 0 || total.Disagreed == 0 || total.Stops == 0 {
		t.Errorf("80 trials never reached every verdict: %+v", total)
	}
	t.Logf("lookaheads over 80 trials: %+v; %d of %d early starts never picked", total, wasted, startedEarly)
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
