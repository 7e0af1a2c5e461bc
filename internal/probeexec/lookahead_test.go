package probeexec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/leakcheck"
	"metaprobe/internal/obs"
)

func dbName(i int) string { return "db" + strconv.Itoa(i) }

// farAway sets the latency reading of backends db0..db(n-1) to an hour:
// slower than any rank, so the loop offers a lookahead at every step
// that has the budget for one.
func (e *Executor) farAway(n int) {
	for i := 0; i < n; i++ {
		e.backendFor(dbName(i)).latency.Store(int64(time.Hour))
	}
}

// orphanRDs is a state whose first lookahead is certain and wrong once
// the head fails. At k = 1 greedy probes db0 first (usefulness 0.8
// against db1's 0.7); whichever of 60 and 100 it returns, nothing
// reaches 0.95 and db1 is the only probe that can, so db1 is started
// early. A failed db0 collapses to 0 — below its whole support — where
// db1 wins outright and is never asked for.
func orphanRDs() []*core.RD {
	return []*core.RD{
		core.MustRD([]float64{60, 100}, []float64{5, 5}),
		core.MustRD([]float64{50, 70, 90, 110}, []float64{2, 3, 3, 2}),
		core.MustRD([]float64{10, 20}, []float64{5, 5}),
	}
}

// TestLatencyReading: the reading follows successful probe calls, leaves
// failures and the pool wait out, and is zero for a backend never heard
// from.
func TestLatencyReading(t *testing.T) {
	leakcheck.Check(t)
	e := NewExecutor(Config{})
	if got := e.latency("db"); got != 0 {
		t.Fatalf("latency of an unknown backend = %v", got)
	}
	slow := func(context.Context) (float64, error) { time.Sleep(5 * time.Millisecond); return 1, nil }
	if _, err := e.Probe(context.Background(), "db", slow); err != nil {
		t.Fatal(err)
	}
	first := e.latency("db")
	if first < 5*time.Millisecond || first > time.Second {
		t.Fatalf("latency after one 5 ms probe = %v", first)
	}
	if _, err := e.Probe(context.Background(), "db", func(context.Context) (float64, error) { return 0, errors.New("down") }); err == nil {
		t.Fatal("failing probe succeeded")
	}
	if got := e.latency("db"); got != first {
		t.Fatalf("a failed probe moved the reading: %v → %v", first, got)
	}
	for i := 0; i < 64; i++ {
		if _, err := e.Probe(context.Background(), "db", func(context.Context) (float64, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.latency("db"); got >= first/8 {
		t.Fatalf("64 instant probes left the reading at %v (from %v)", got, first)
	}
}

// runOrphan runs orphanRDs at k = 1, t = 0.95 through an executor whose
// backends read far away. db0 answers with head() only once the
// lookahead has db1 on the wire, and db1 hangs until cancelled. However
// db0 ends, db1 was started early, was never waited for, and Drain
// cancelled it: one certain lookahead, one speculative cancellation, two
// probes in flight at once, a neutral breaker, nothing left in flight.
func runOrphan(t *testing.T, head func() (float64, error)) core.Outcome {
	t.Helper()
	reg := obs.NewRegistry()
	e := NewExecutor(Config{Metrics: reg})
	e.farAway(3)
	successorStarted := make(chan struct{})
	probe := func(ctx context.Context, i int) (float64, error) {
		switch i {
		case 0:
			// Answer only once the successor is on the wire.
			select {
			case <-successorStarted:
			case <-time.After(10 * time.Second):
				t.Error("the lookahead never started db1")
			}
			return head()
		case 1:
			close(successorStarted)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		t.Errorf("probed db%d", i)
		return 0, nil
	}
	sel := core.NewSelectionFromRDs(orphanRDs(), core.Absolute, 1)
	got, err := e.APro(context.Background(), sel, dbName, probe, core.Greedy{}, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	if ahead := sel.Ahead(); ahead.Certain != 1 || ahead.Disagreed+ahead.Stops+ahead.Abandoned != 0 {
		t.Errorf("ahead = %+v, want one certain lookahead", ahead)
	}
	if got := reg.Counter("mp_probes_speculative_cancelled_total", nil).Value(); got != 1 {
		t.Errorf("mp_probes_speculative_cancelled_total = %d, want 1", got)
	}
	// Every acquire observes the in-flight count including itself, so a
	// sum above the count means one of them saw a second probe.
	if h := reg.Histogram("mp_probe_inflight_at_acquire", nil); h.Sum() <= float64(h.Count()) {
		t.Errorf("mp_probe_inflight_at_acquire: %d acquires summing to %v, none saw a second probe in flight", h.Count(), h.Sum())
	}
	if got := e.inflight(); got != 0 {
		t.Errorf("inflight after APro = %d", got)
	}
	if s := e.breakerState(dbName(1)); s != BreakerClosed {
		t.Errorf("cancelled successor moved db1's breaker to %v", s)
	}
	return got
}

// TestLookaheadFailedHeadDrainsOrphan: the head fails after the
// lookahead has started its certain successor. The failed-probe rule
// applies as it does inline, and the successor is an orphan (runOrphan).
func TestLookaheadFailedHeadDrainsOrphan(t *testing.T) {
	leakcheck.Check(t)
	down := errors.New("backend down")
	want, err := core.APro(core.NewSelectionFromRDs(orphanRDs(), core.Absolute, 1), func(i int) (float64, error) {
		if i == 0 {
			return 0, down
		}
		t.Errorf("inline run probed db%d", i)
		return 0, nil
	}, core.Greedy{}, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	got := runOrphan(t, func() (float64, error) { return 0, down })
	if !got.Degraded || !got.Reached || !reflect.DeepEqual(got.Set, []int{1}) || !reflect.DeepEqual(got.Excluded, []int{0}) ||
		len(got.Steps) != 1 || !errors.Is(got.Steps[0].Err, down) {
		t.Fatalf("outcome %+v", got)
	}
	if !reflect.DeepEqual(got.Set, want.Set) || got.Certainty != want.Certainty || got.Reached != want.Reached ||
		!reflect.DeepEqual(got.Excluded, want.Excluded) || got.Steps[0].Usefulness != want.Steps[0].Usefulness {
		t.Fatalf("outcome %+v, inline %+v", got, want)
	}
}

// TestLookaheadOffSupportHeadDrainsOrphan: the head answers above its
// whole support, which settles the selection on the spot. The successor
// every on-support outcome led to is an orphan (runOrphan), and
// cancelling it does not degrade the result.
func TestLookaheadOffSupportHeadDrainsOrphan(t *testing.T) {
	leakcheck.Check(t)
	got := runOrphan(t, func() (float64, error) { return 1000, nil })
	if got.Degraded || !got.Reached || !reflect.DeepEqual(got.Set, []int{0}) || len(got.Steps) != 1 || got.Steps[0].Err != nil {
		t.Fatalf("outcome %+v", got)
	}
}

// onRank is Greedy calling do as it starts its nth rank (the loop's own
// rank is the first, the lookahead's follow).
type onRank struct {
	core.Greedy
	ranks *int
	n     int
	do    func()
}

func (p onRank) Rank(s *core.Selection, t float64, m int) ([]int, []float64, error) {
	if *p.ranks++; *p.ranks == p.n {
		p.do()
	}
	return p.Greedy.Rank(s, t, m)
}

// TestDrainCountsOnlyProbesThatRan: a successor started early that never
// reached its backend — here db1's open breaker rejects it; under load it
// is as often cancelled waiting for a pool slot — cost no search, so Drain
// does not count it as speculative waste. db0 answers above its support,
// which settles the selection, once the lookahead has ranked both of its
// outcomes (the loop's own rank is the first of three), so db1 is started
// and never asked for.
func TestDrainCountsOnlyProbesThatRan(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	e := NewExecutor(Config{Metrics: reg})
	for e.breakerState(dbName(1)) != BreakerOpen {
		e.Probe(context.Background(), dbName(1), func(context.Context) (float64, error) { return 0, errors.New("down") })
	}
	e.farAway(3)
	ranks, thought := 0, make(chan struct{})
	probe := func(ctx context.Context, i int) (float64, error) {
		if i != 0 {
			t.Errorf("db%d reached its backend", i)
			return 0, nil
		}
		select {
		case <-thought:
		case <-time.After(10 * time.Second):
			t.Error("the lookahead never ranked both outcomes")
		}
		return 1000, nil
	}
	sel := core.NewSelectionFromRDs(orphanRDs(), core.Absolute, 1)
	got, err := e.APro(context.Background(), sel, dbName, probe, onRank{ranks: &ranks, n: 3, do: func() { close(thought) }}, 0.95, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded || !got.Reached || len(got.Steps) != 1 || got.Steps[0].DB != 0 {
		t.Fatalf("outcome %+v", got)
	}
	if ahead := sel.Ahead(); ahead.Certain != 1 {
		t.Errorf("ahead = %+v, want one certain lookahead, which starts db1", ahead)
	}
	if got := reg.Counter("mp_probes_speculative_cancelled_total", nil).Value(); got != 0 {
		t.Errorf("mp_probes_speculative_cancelled_total = %d, want 0: db1's probe never reached its backend", got)
	}
	if got := e.inflight(); got != 0 {
		t.Errorf("inflight after APro = %d", got)
	}
}

// TestLookaheadCancelledMidThought: the caller gives up while the loop
// is thinking behind a probe. The selection is abandoned, whatever the
// lookahead had started is drained, and no goroutine or slot outlives
// it.
func TestLookaheadCancelledMidThought(t *testing.T) {
	leakcheck.Check(t)
	e := NewExecutor(Config{})
	e.farAway(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ranks := 0
	probe := func(c context.Context, i int) (float64, error) {
		<-c.Done()
		return 0, c.Err()
	}
	sel := core.NewSelectionFromRDs(orphanRDs(), core.Absolute, 1)
	// The caller walks away as the lookahead starts its first rank.
	_, err := e.APro(ctx, sel, dbName, probe, onRank{ranks: &ranks, n: 2, do: cancel}, 0.95, -1)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "selection abandoned") {
		t.Fatalf("err = %v, want selection abandoned by the caller", err)
	}
	if ranks < 2 {
		t.Fatalf("%d ranks: the lookahead never ran", ranks)
	}
	if got := e.inflight(); got != 0 {
		t.Errorf("inflight after APro = %d", got)
	}
}

// longSelections returns seeded random sets of 20 RDs on the golden
// fixture's value grid, with the relevancies their probes observe, whose
// greedy trajectories at k = 3 and t = 0.9 run ten steps or more, with
// each one's inline outcome.
func longSelections(t *testing.T, count int) (sets [][]*core.RD, truths [][]float64, want []core.Outcome) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for len(sets) < count {
		rds, truth := make([]*core.RD, 20), make([]float64, 20)
		for i := range rds {
			seen := map[float64]bool{}
			var vals, weights []float64
			for n := 1 + rng.Intn(5); len(vals) < n; {
				if v := float64(5 * rng.Intn(20)); !seen[v] {
					seen[v] = true
					vals, weights = append(vals, v), append(weights, float64(1+rng.Intn(9)))
				}
			}
			rds[i], truth[i] = core.MustRD(vals, weights), vals[rng.Intn(len(vals))]
		}
		out, err := core.APro(core.NewSelectionFromRDs(rds, core.Absolute, 3), func(i int) (float64, error) { return truth[i], nil }, core.Greedy{}, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Steps) >= 10 {
			sets, truths, want = append(sets, rds), append(truths, truth), append(want, out)
		}
	}
	return sets, truths, want
}

// TestLookaheadLongTrajectories: selections over 20 databases whose
// trajectories run ten steps or more, so that the lookahead starts wide
// from the seventh probe on, fold through a thinking executor exactly
// what they fold inline — step, value, usefulness, set and certainty, bit
// for bit. Every probe that reached a backend and was never folded is
// counted in mp_probes_speculative_cancelled_total, and none is in flight
// once the last selection returns.
func TestLookaheadLongTrajectories(t *testing.T) {
	leakcheck.Check(t)
	sets, truths, want := longSelections(t, 16)
	e := NewExecutor(Config{Metrics: obs.NewRegistry()})
	e.farAway(20)
	var started, steps int64
	var ahead core.AheadWork
	for ci, rds := range sets {
		truth := truths[ci]
		probe := func(_ context.Context, i int) (float64, error) {
			atomic.AddInt64(&started, 1)
			time.Sleep(5 * time.Millisecond)
			return truth[i], nil
		}
		sel := core.NewSelectionFromRDs(rds, core.Absolute, 3)
		got, err := e.APro(context.Background(), sel, dbName, probe, core.Greedy{}, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[ci]) {
			t.Fatalf("set %d: outcome through the thinking executor %+v, inline %+v", ci, got, want[ci])
		}
		a := sel.Ahead()
		ahead.Certain += a.Certain
		ahead.Probable += a.Probable
		ahead.Abandoned += a.Abandoned
		ahead.Wide += a.Wide
		steps += int64(len(got.Steps))
	}
	orphans := atomic.LoadInt64(&started) - steps
	cancelled := e.cfg.Metrics.Counter("mp_probes_speculative_cancelled_total", nil).Value()
	if cancelled != orphans {
		t.Errorf("%d probes reached a backend and were never picked, mp_probes_speculative_cancelled_total = %d", orphans, cancelled)
	}
	if got := e.inflight(); got != 0 {
		t.Errorf("%d probes in flight after the last selection", got)
	}
	t.Logf("%d long selections, %d steps: lookaheads %+v, %d probes never picked", len(sets), steps, ahead, orphans)
}
