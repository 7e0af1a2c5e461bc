package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"metaprobe/internal/leakcheck"
)

func never() bool { return false }

// bruteVerdict is what probableNext has to decide about one state,
// worked out by bruteProbableNext.
type bruteVerdict struct {
	// next is the database the most outcome mass leads to, -1 when none
	// does; ok is whether starting it is expected to waste at most
	// maxDissent.
	next int
	ok   bool
	// certain replays the lookahead's order — outcomes that do not stop,
	// most probable first — and reports whether, at the first prefix whose
	// reckoning lets next start, no outcome had been seen to stop, to end
	// or to lead elsewhere and at most maxDissent of the mass was left.
	certain bool
	// tooManyStops is whether the outcomes that stop carry more than
	// maxDissent of the mass.
	tooManyStops bool
	// firstRanked is the support index of the outcome the lookahead ranks
	// first, -1 when every outcome stops.
	firstRanked int
	// okAtOne and okEndedAtW are ok as it would be with missWeight read as
	// 1, and with the mass of outcomes that end the loop weighed at
	// missWeight instead of in full.
	okAtOne, okEndedAtW bool
	// wide is what a wide lookahead starts, in order: the leader, the other
	// databases some outcome leads to by mass (ties to the lower index),
	// then the runners-up of Rank(s, t, wideRunners) — none when the
	// outcomes that stop or end the loop carry more than maxDissent of the
	// mass. wideVerdict is the AheadWork field it counts under, and
	// wideBorderline is borderline or two databases' masses within
	// round-off of each other, which may order them either way.
	wide           []int
	wideVerdict    string
	wideBorderline bool
	// borderline reports a state on which the two evaluations may
	// legitimately differ: a hypothetical certainty within round-off of t,
	// or a waste or a mass within round-off of a bound it is held to.
	borderline bool
}

// bruteProbableNext works out the slow way what probableNext has to
// decide: every support value of head's RD is applied to a fresh
// reference-path copy of s, the loop's next two decisions — stop? else
// which database, if ranker finds one? — are read off it, and the value's
// probability is tallied as stopping, as ending (ranker fails) or under
// the database picked. Starting the leader wastes stopping and ending mass
// in full and the mass that leads elsewhere at missWeight.
func bruteProbableNext(s *Selection, ranker Ranker, head int, t float64) bruteVerdict {
	rd := s.RD(head)
	near := func(a, b float64) bool { return math.Abs(a-b) <= diffTol }
	// The database each outcome leads to: -1 where the rank fails, -2
	// where the loop stops.
	picks := make([]int, rd.Len())
	mass := map[int]float64{}
	stopped, ended := 0.0, 0.0
	v := bruteVerdict{next: -1, firstRanked: -1}
	for vi := range picks {
		ref := NewSelectionFromRDs(s.rds, s.metric, s.k)
		ref.noScratch = true
		copy(ref.probed, s.probed)
		ref.ApplyProbe(head, rd.Value(vi))
		_, e := ref.Best()
		v.borderline = v.borderline || near(e, t)
		if e >= t {
			picks[vi] = -2
			stopped += rd.Prob(vi)
			continue
		}
		picks[vi] = -1
		if dbs, _, err := ranker.Rank(ref, t, 1); err == nil {
			db := dbs[0]
			picks[vi] = db
			if mass[db] += rd.Prob(vi); v.next < 0 || mass[db] > mass[v.next] {
				v.next = db
			}
		} else {
			ended += rd.Prob(vi)
		}
	}
	v.tooManyStops = stopped > maxDissent
	v.borderline = v.borderline || near(stopped, maxDissent)
	v.wide, v.wideVerdict = bruteWide(s, ranker, head, t, mass, v.next, stopped, ended)
	v.wideBorderline = near(stopped+ended, maxDissent)
	for a, ma := range mass {
		for b, mb := range mass {
			v.wideBorderline = v.wideBorderline || (a != b && near(ma, mb))
		}
	}
	order := []int{}
	for vi, db := range picks {
		if db != -2 {
			order = append(order, vi)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return rd.Prob(order[a]) > rd.Prob(order[b]) })
	if len(order) > 0 {
		v.firstRanked = order[0]
	}
	if v.next < 0 {
		return v
	}
	elsewhere := 0.0
	for db, m := range mass {
		if db != v.next {
			elsewhere += m
		}
	}
	waste := stopped + ended + missWeight*elsewhere
	v.ok = waste <= maxDissent
	v.okAtOne = stopped+ended+elsewhere <= maxDissent
	v.okEndedAtW = stopped+missWeight*(ended+elsewhere) <= maxDissent
	v.borderline = v.borderline || near(waste, maxDissent)
	if !v.ok {
		return v
	}
	// The replay: outcomes not yet ranked are reckoned to lead elsewhere.
	dissent, seen, endedSeen, left := stopped > 0, 0.0, 0.0, 1-stopped
	for _, vi := range order {
		switch picks[vi] {
		case v.next:
			seen += rd.Prob(vi)
		case -1:
			endedSeen += rd.Prob(vi)
			dissent = true
		default:
			dissent = true
		}
		left -= rd.Prob(vi)
		reckoned := stopped + endedSeen + missWeight*(1-stopped-endedSeen-seen)
		v.borderline = v.borderline || near(reckoned, maxDissent)
		if reckoned <= maxDissent {
			v.borderline = v.borderline || near(left, maxDissent)
			v.certain = !dissent && left <= maxDissent
			break
		}
	}
	return v
}

// bruteWide is what a wide lookahead has to start on s, given the mass
// each database's outcomes carry, the leader next, and the mass of the
// outcomes that stop or end the loop, and the verdict it counts.
func bruteWide(s *Selection, ranker Ranker, head int, t float64, mass map[int]float64, next int, stopped, ended float64) ([]int, string) {
	switch {
	case stopped > maxDissent:
		return nil, "stops"
	case stopped+ended > maxDissent:
		return nil, "disagreed"
	}
	verdict := "certain"
	if stopped+ended > 0 || len(mass) > 1 {
		verdict = "probable"
	}
	others := []int{}
	for db := range mass {
		if db != next {
			others = append(others, db)
		}
	}
	sort.Slice(others, func(a, b int) bool {
		if mass[others[a]] != mass[others[b]] {
			return mass[others[a]] > mass[others[b]]
		}
		return others[a] < others[b]
	})
	starts := append([]int{next}, others...)
	ref := NewSelectionFromRDs(s.rds, s.metric, s.k)
	ref.noScratch = true
	copy(ref.probed, s.probed)
	dbs, _, err := ranker.Rank(ref, t, wideRunners)
	if err != nil {
		return starts, verdict
	}
	for _, db := range dbs[1:] {
		if !slices.Contains(starts, db) {
			starts = append(starts, db)
		}
	}
	return starts, verdict
}

// endingRanker is Greedy but for one outcome of head's probe, value,
// after which it finds nothing to pick: that outcome ends the loop.
// Greedy's own Rank fails on every outcome of a probe or on none — when
// no unprobed database is left informative — so only a ranker like this
// one shows how the mass of an outcome that ends the loop is weighed.
type endingRanker struct {
	head  int
	value float64
}

func (r endingRanker) Rank(s *Selection, t float64, m int) ([]int, []float64, error) {
	if s.isProbed(r.head) && s.RD(r.head).Value(0) == r.value {
		return nil, nil, ErrNoInformativeProbe
	}
	return Greedy{}.Rank(s, t, m)
}

// lookaheadVerdicts counts how often walkProbableNext saw each verdict,
// and on how many states the two miscounts the brute force tells apart
// would have changed it: missWeight read as 1, or an outcome that ends
// the loop weighed at missWeight.
type lookaheadVerdicts struct {
	states, certain, probable, disagreed, stops int
	atOneDiffers, endedAtWDiffers               int
	// What the same states came to on a wide step: how many were compared,
	// how many started more than the narrow rule would have, and how many
	// started nothing.
	wideStates, wider, wideNone int
}

// checkProbableNext holds probableNext on s's state to the brute force
// under ranker: it starts a database exactly when the brute force
// reckons that start's waste within maxDissent, calls that certain
// exactly when the brute force's replay of its order does, and blames
// stops exactly when the outcomes that stop carry more than maxDissent of
// the mass.
func checkProbableNext(t *testing.T, id string, la *lookahead, s *Selection, ranker Ranker, head int, thr float64, v *lookaheadVerdicts) bruteVerdict {
	t.Helper()
	want := bruteProbableNext(s, ranker, head, thr)
	_, e := s.Best()
	work, rdsBefore, before := s.Work(), fmt.Sprint(s.rds), s.Ahead()
	starts := la.probableNext(s, ranker, head, thr, false, never)
	next, ok := -1, len(starts) > 0
	if ok {
		next = starts[0]
	}
	if len(starts) > 1 || s.Ahead().Wide != before.Wide {
		t.Fatalf("%s: a narrow lookahead started %v and counted %d wide starts", id, starts, s.Ahead().Wide-before.Wide)
	}
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
	if want.borderline {
		return want
	}
	v.states++
	if ok != want.ok || (ok && next != want.next) || (ok && (certain == 1) != want.certain) {
		t.Fatalf("%s after %d probes, head %d: probableNext = (%d, %v), verdicts %+v → %+v; brute force %+v",
			id, len(s.rds)-len(s.UnprobedView()), head, next, ok, before, after, want)
	}
	if (stops == 1) != want.tooManyStops {
		t.Fatalf("%s: the lookahead's verdict is stops = %v, the brute force's stopping outcomes carry more than maxDissent = %v", id, stops == 1, want.tooManyStops)
	}
	if want.okAtOne != want.ok {
		v.atOneDiffers++
	}
	if want.okEndedAtW != want.ok {
		v.endedAtWDiffers++
	}
	v.certain += certain
	v.probable += probable
	v.disagreed += disagreed
	v.stops += stops
	checkWideNext(t, id, la, s, ranker, head, thr, want, len(starts), v)
	return want
}

// checkWideNext holds probableNext on a wide step to the brute force: it
// starts exactly want.wide, in that order, counts the verdict the brute
// force names and every start past the first as Wide, and leaves s and
// its RankWork as they were.
func checkWideNext(t *testing.T, id string, la *lookahead, s *Selection, ranker Ranker, head int, thr float64, want bruteVerdict, narrow int, v *lookaheadVerdicts) {
	t.Helper()
	_, e := s.Best()
	work, rdsBefore, before := s.Work(), fmt.Sprint(s.rds), s.Ahead()
	starts := slices.Clone(la.probableNext(s, ranker, head, thr, true, never))
	if s.Work() != work {
		t.Fatalf("%s: wide lookahead work leaked into RankWork: %+v → %+v", id, work, s.Work())
	}
	if _, after := s.Best(); after != e || fmt.Sprint(s.rds) != rdsBefore {
		t.Fatalf("%s: a wide probableNext changed the state it was asked about", id)
	}
	after := s.Ahead()
	moved := map[string]int{
		"certain":   after.Certain - before.Certain,
		"probable":  after.Probable - before.Probable,
		"disagreed": after.Disagreed - before.Disagreed,
		"stops":     after.Stops - before.Stops,
	}
	if moved["certain"]+moved["probable"]+moved["disagreed"]+moved["stops"] != 1 || after.Abandoned != before.Abandoned ||
		after.Wide-before.Wide != max(0, len(starts)-1) {
		t.Fatalf("%s: one wide lookahead started %v and moved the verdicts %+v → %+v", id, starts, before, after)
	}
	if want.borderline || want.wideBorderline {
		return
	}
	if !slices.Equal(starts, want.wide) || moved[want.wideVerdict] != 1 {
		t.Fatalf("%s after %d probes, head %d: wide lookahead started %v, verdicts %+v → %+v; brute force starts %v (%s)",
			id, len(s.rds)-len(s.UnprobedView()), head, starts, before, after, want.wide, want.wideVerdict)
	}
	v.wideStates++
	if len(starts) > narrow {
		v.wider++
	}
	if len(starts) == 0 {
		v.wideNone++
	}
}

// walkProbableNext follows the greedy trajectory of one RD set and holds
// probableNext to the brute force at every state on it twice: under
// Greedy, and under an endingRanker that ends the loop on the outcome
// the lookahead ranks first.
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
		want := checkProbableNext(t, id, la, s, Greedy{}, head, thr, v)
		if want.firstRanked >= 0 {
			ending := endingRanker{head: head, value: s.RD(head).Value(want.firstRanked)}
			checkProbableNext(t, id+" (first outcome ends the loop)", la, s, ending, head, thr, v)
		}
		s.ApplyProbe(head, truth[head])
	}
}

// TestProbableNextMatchesBruteForce: on randomised RD sets and on the
// states of the golden fixture's trajectories, probableNext names a next
// database exactly when applying every support value to a fresh
// reference-path selection says that starting it wastes at most
// maxDissent of a search: the mass of outcomes that stop or end the loop
// in full, and missWeight of the mass that leads elsewhere. The states
// compared include enough on which missWeight read as 1, or an ending
// outcome weighed at missWeight, would have changed the verdict. On the
// same states taken as wide steps it starts every database some outcome
// that does not stop leads to, and the runners-up of Rank(s, t,
// wideRunners), or nothing once stopping and ending outcomes carry more
// than maxDissent of the mass.
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
	if v.states < 600 || v.certain < 60 || v.probable < 20 || v.disagreed < 60 || v.stops < 60 || v.atOneDiffers < 20 || v.endedAtWDiffers < 20 ||
		v.wideStates < 600 || v.wider < 200 || v.wideNone < 60 {
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
			ok := len(la.probableNext(s, countingGreedy{ranks: &ranks}, ranked[0], thr, false, never)) > 0
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
		ok := len(la.probableNext(s, countingGreedy{ranks: &ranks}, head, thr, false, func() bool {
			if asked++; asked == at {
				ranksWhenAnswered = ranks
				return true
			}
			return false
		})) > 0
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

	for _, wide := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(50, func() { la.probableNext(s, Greedy{}, head, thr, wide, never) }); allocs != 0 {
			t.Errorf("a steady-state lookahead (wide %v) allocates %.0f objects, want 0", wide, allocs)
		}
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
			ahead.Abandoned != 0 || ahead.Certain+ahead.Probable+ahead.Wide != len(eager.early) {
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

// longTrajectories returns seeded random sets of 20 RDs, with the
// relevancies their probes observe, whose greedy trajectories at k = 3
// and t = 0.9 run ten steps or more, with each one's inline outcome.
func longTrajectories(t *testing.T, count int) (sets [][]*RD, truths [][]float64, want []Outcome) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for len(sets) < count {
		rds, truth := make([]*RD, 20), make([]float64, 20)
		for i := range rds {
			rds[i] = randTestRD(rng)
			truth[i] = rds[i].Value(rng.Intn(rds[i].Len()))
		}
		out, err := APro(NewSelectionFromRDs(rds, Absolute, 3), func(i int) (float64, error) { return truth[i], nil }, Greedy{}, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Steps) >= 10 {
			sets, truths, want = append(sets, rds), append(truths, truth), append(want, out)
		}
	}
	return sets, truths, want
}

// TestLookaheadWideOnLongTrajectories: on the virtual clock, selections
// over 20 databases whose trajectories run ten steps or more fold the
// inline trajectory with the lookahead narrow throughout and with it wide
// from wideFrom on. Every probe sent is folded or left for Drain, every
// early start is one the lookaheads counted, and the wide starts take
// virtual time off these long queries.
func TestLookaheadWideOnLongTrajectories(t *testing.T) {
	leakcheck.Check(t)
	const latency, rankCost = 10 * time.Millisecond, 110 * time.Microsecond
	sets, truths, want := longTrajectories(t, 12)
	elapsed := map[int]time.Duration{}
	var ahead AheadWork
	for ci, rds := range sets {
		for _, wideAt := range []int{math.MaxInt, wideFrom} {
			s := NewSelectionFromRDs(rds, Absolute, 3)
			r, err := ReplayVirtual(s, func(i int) float64 { return truths[ci][i] }, 0.9, true, wideAt, latency, rankCost)
			if err != nil {
				t.Fatal(err)
			}
			a := s.Ahead()
			s.Release()
			if !reflect.DeepEqual(r.Out, want[ci]) {
				t.Fatalf("set %d, wide from %d: outcome %+v, inline %+v", ci, wideAt, r.Out, want[ci])
			}
			if r.Searches != len(r.Out.Steps)+r.Orphans || r.Early != a.Certain+a.Probable+a.Wide {
				t.Fatalf("set %d, wide from %d: %d searches, %d steps, %d left for Drain; %d early starts, lookaheads %+v",
					ci, wideAt, r.Searches, len(r.Out.Steps), r.Orphans, r.Early, a)
			}
			if wideAt == math.MaxInt && a.Wide != 0 {
				t.Fatalf("set %d: narrow lookaheads counted %d wide starts", ci, a.Wide)
			}
			elapsed[wideAt] += r.Elapsed
			if wideAt == wideFrom {
				ahead.Certain += a.Certain
				ahead.Probable += a.Probable
				ahead.Wide += a.Wide
			}
		}
	}
	if ahead.Wide == 0 || elapsed[wideFrom] >= elapsed[math.MaxInt] {
		t.Errorf("wide lookaheads %+v took %v of virtual time, narrow ones %v", ahead, elapsed[wideFrom], elapsed[math.MaxInt])
	}
	t.Logf("%d long selections: %v of virtual time narrow, %v wide; wide lookaheads %+v", len(sets), elapsed[math.MaxInt], elapsed[wideFrom], ahead)
}
