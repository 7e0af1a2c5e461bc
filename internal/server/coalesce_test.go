package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe"
	"metaprobe/internal/obs"
)

// TestCoalesceFanout: N concurrent requests for one key run fn once
// and every waiter receives the identical result instance.
func TestCoalesceFanout(t *testing.T) {
	c := newCoalescer(context.Background(), obs.NewRegistry())
	const n = 16
	var runs atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{}, n)
	want := &metaprobe.SelectionResult{Databases: []string{"a", "b"}, Certainty: 0.93}
	fn := func(ctx context.Context) (*metaprobe.SelectionResult, error) {
		runs.Add(1)
		<-release
		return want, nil
	}

	var wg sync.WaitGroup
	results := make([]*metaprobe.SelectionResult, n)
	joins := make([]bool, n)
	fans := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered <- struct{}{}
			ans, joined, fanout, err := c.do(context.Background(), "default", "k", fn)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], joins[i], fans[i] = ans, joined, fanout
		}(i)
	}
	// Wait until every goroutine is at least launched, give the leader
	// time to list the call, then let all waiters pile on before the
	// run completes.
	for i := 0; i < n; i++ {
		<-entered
	}
	for c.inflight() == 0 {
		time.Sleep(time.Millisecond)
	}
	// All n either joined the listed call or are the leader; once every
	// request is blocked inside do, release the run.
	deadline := time.Now().Add(5 * time.Second)
	for waitersOf(c, "k") < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined", waitersOf(c, "k"), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if results[i] != want {
			t.Fatalf("waiter %d got %+v, want the shared instance", i, results[i])
		}
		if fans[i] != n {
			t.Errorf("waiter %d saw fanout %d, want %d", i, fans[i], n)
		}
		if !joins[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want exactly 1", leaders)
	}
}

// TestCoalesceWaiterCancelKeepsRun: a waiter abandoning its wait must
// not cancel the shared run — the remaining waiters still get the
// answer.
func TestCoalesceWaiterCancelKeepsRun(t *testing.T) {
	c := newCoalescer(context.Background(), nil)
	release := make(chan struct{})
	want := &metaprobe.SelectionResult{Databases: []string{"x"}}
	var runCanceled atomic.Bool
	fn := func(ctx context.Context) (*metaprobe.SelectionResult, error) {
		<-release
		if ctx.Err() != nil {
			runCanceled.Store(true)
			return nil, ctx.Err()
		}
		return want, nil
	}

	// Leader in one goroutine.
	type out struct {
		ans *metaprobe.SelectionResult
		err error
	}
	leaderDone := make(chan out, 1)
	go func() {
		ans, _, _, err := c.do(context.Background(), "default", "k", fn)
		leaderDone <- out{ans, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for waitersOf(c, "k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never listed the call")
		}
		time.Sleep(time.Millisecond)
	}

	// A second waiter joins, then cancels its own context mid-wait.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan out, 1)
	go func() {
		ans, _, _, err := c.do(ctx, "default", "k", fn)
		waiterDone <- out{ans, err}
	}()
	for waitersOf(c, "k") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second waiter never joined")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	w := <-waiterDone
	if w.err != context.Canceled {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", w.err)
	}

	// The run proceeds on the detached context and the leader is served.
	close(release)
	l := <-leaderDone
	if l.err != nil {
		t.Fatalf("leader failed: %v", l.err)
	}
	if l.ans != want {
		t.Fatalf("leader got %+v, want the shared instance", l.ans)
	}
	if runCanceled.Load() {
		t.Fatal("waiter cancellation propagated into the shared run")
	}
}

// TestCoalesceCompletedRunNotReused: a request arriving after the run
// finished starts a fresh one.
func TestCoalesceCompletedRunNotReused(t *testing.T) {
	c := newCoalescer(context.Background(), nil)
	var runs atomic.Int64
	fn := func(ctx context.Context) (*metaprobe.SelectionResult, error) {
		n := runs.Add(1)
		return &metaprobe.SelectionResult{ID: fmt.Sprintf("run-%d", n)}, nil
	}
	a1, _, _, err := c.do(context.Background(), "default", "k", fn)
	if err != nil {
		t.Fatal(err)
	}
	a2, joined, _, err := c.do(context.Background(), "default", "k", fn)
	if err != nil {
		t.Fatal(err)
	}
	if joined {
		t.Error("sequential request reported joined")
	}
	if runs.Load() != 2 || a1.ID == a2.ID {
		t.Errorf("sequential requests shared a run: %d runs, ids %q/%q", runs.Load(), a1.ID, a2.ID)
	}
}

// TestCoalesceKeyTiers: identical requests admitted at different tiers
// must not share a run (a degraded waiter must never receive — or
// relabel — a full-tier answer).
func TestCoalesceKeyTiers(t *testing.T) {
	full := coalesceKey("t", "q", 3, "absolute", 0.9, -1, TierFull)
	rd := coalesceKey("t", "q", 3, "absolute", 0.9, -1, TierRDOnly)
	if full == rd {
		t.Fatal("full and rd_only requests share a coalesce key")
	}
	if coalesceKey("a", "q", 3, "absolute", 0.9, -1, TierFull) ==
		coalesceKey("b", "q", 3, "absolute", 0.9, -1, TierFull) {
		t.Fatal("different tenants share a coalesce key")
	}
}

// inflight reports listed calls (test helper).
func (c *coalescer) inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// waitersOf reports the waiter count of a listed call, 0 if unlisted.
func waitersOf(c *coalescer, key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.calls[key]; ok {
		return int(cl.waiters)
	}
	return 0
}
