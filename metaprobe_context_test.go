package metaprobe

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"metaprobe/internal/hidden"
)

// toggleFail wraps a database with a switchable outage: while down,
// every search fails with ErrUnavailable (and is counted).
type toggleFail struct {
	Database
	down      atomic.Bool
	downCalls atomic.Int64
}

func (f *toggleFail) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	if f.down.Load() {
		f.downCalls.Add(1)
		return hidden.Result{}, fmt.Errorf("%w: %s is down", hidden.ErrUnavailable, f.Name())
	}
	return f.Database.SearchContext(ctx, query, topK)
}

// TestSelectContextMatchesSequential: with default configuration and
// healthy backends, the context path must return
// exactly what the sequential paper algorithm returns — same set, same
// certainty, same probe count.
func TestSelectContextMatchesSequential(t *testing.T) {
	ms, testQueries := buildTestMetasearcher(t)
	for _, q := range testQueries[:12] {
		seq, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ms.SelectWithCertaintyContext(context.Background(), q, 2, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || len(res.ExcludedDBs) != 0 {
			t.Fatalf("%q: healthy run degraded: %+v", q, res)
		}
		if fmt.Sprintf("%v", res.Databases) != fmt.Sprintf("%v", seq.Databases) {
			t.Errorf("%q: context set %v != sequential %v", q, res.Databases, seq.Databases)
		}
		if res.Certainty != seq.Certainty || res.Probes != seq.Probes || res.Reached != seq.Reached {
			t.Errorf("%q: context (cert=%v probes=%d reached=%v) != sequential (cert=%v probes=%d reached=%v)",
				q, res.Certainty, res.Probes, res.Reached, seq.Certainty, seq.Probes, seq.Reached)
		}
	}
}

// TestConcurrentSelectionsRace drives a shared Metasearcher — with
// metrics, tracing, drift detection and online refinement all enabled
// — from many goroutines mixing the sequential and
// context paths. Run under -race (CI does), this is the concurrency-
// safety proof for the probe-feedback path.
func TestConcurrentSelectionsRace(t *testing.T) {
	reg := NewMetrics()
	spans := NewSpanTracer(0)
	cfg := &Config{
		Metrics:          reg,
		Spans:            spans,
		Drift:            true,
		OnlineRefinement: true,
	}
	ms, testQueries := buildTestMetasearcherWith(t, cfg, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := 0; qi < 8; qi++ {
				q := testQueries[(g*8+qi)%len(testQueries)]
				var err error
				if qi%2 == 0 {
					_, err = ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
				} else {
					_, err = ms.SelectWithCertaintyContext(context.Background(), q, 2, Absolute, 0.9, -1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 32 selections, each one trace with its record on the root span.
	traces := spans.Traces(0)
	if len(traces) != 32 {
		t.Errorf("recorded %d traces, want 32", len(traces))
	}
	ids := make(map[string]bool)
	for _, tr := range traces {
		rec := readSelection(t, spans, tr.TraceID)
		ids[rec.Attrs["id"]] = true
		if want, _ := strconv.Atoi(rec.Attrs["probes"]); len(rec.Steps) < want {
			t.Errorf("trace %s: %d step events for %d probes", tr.TraceID, len(rec.Steps), want)
		}
	}
	if len(ids) != len(traces) {
		t.Errorf("%d distinct selection IDs over %d traces", len(ids), len(traces))
	}
}

// TestSelectContextDegradesOnDeadBackend takes one backend down after
// training: context selections must keep answering (Degraded, the dead
// backend excluded), and once its circuit breaker opens the dead
// backend must stop being contacted at all.
func TestSelectContextDegradesOnDeadBackend(t *testing.T) {
	var failers []*toggleFail
	ms, testQueries := buildTestMetasearcherWith(t, nil, func(i int, db Database) Database {
		f := &toggleFail{Database: db}
		failers = append(failers, f)
		return f
	})
	dead := failers[0]
	dead.down.Store(true)

	degraded := 0
	for _, q := range testQueries {
		res, err := ms.SelectWithCertaintyContext(context.Background(), q, 2, Absolute, 0.99, -1)
		if err != nil {
			t.Fatalf("%q: degraded selection must not error: %v", q, err)
		}
		if len(res.Databases) != 2 {
			t.Fatalf("%q: returned %d databases, want 2", q, len(res.Databases))
		}
		if !res.Degraded {
			continue
		}
		degraded++
		found := false
		for _, name := range res.ExcludedDBs {
			if name == dead.Name() {
				found = true
			}
		}
		if !found {
			t.Fatalf("%q: degraded without excluding %s: %+v", q, dead.Name(), res)
		}
	}
	if degraded == 0 {
		t.Fatal("no selection ever touched the dead backend")
	}
	// The breaker opens after five consecutive failures and stays open
	// for 30 s, far longer than the test: the dead backend may be
	// contacted at most five times before the breaker eats every further
	// probe without a network attempt.
	if calls := dead.downCalls.Load(); calls > 5 {
		t.Errorf("dead backend contacted %d times; breaker should cap at 5", calls)
	}
}

// fetchLog is what a testbed of fetchRecorders saw: the context of
// every Fetch.
type fetchLog struct {
	ctxs    []context.Context
	onFetch func() // runs inside each Fetch
}

// fetchRecorder is a database that records the context of each fetch.
type fetchRecorder struct {
	Database
	log *fetchLog
}

func (f fetchRecorder) Fetch(ctx context.Context, id string) (string, error) {
	f.log.ctxs = append(f.log.ctxs, ctx)
	if f.log.onFetch != nil {
		f.log.onFetch()
	}
	return f.Database.(hidden.Fetcher).Fetch(ctx, id)
}

// TestMetasearchFetchesSnippetsUnderContext: the enrichment half of the
// pipeline runs under the caller's context like the rest — each fused
// result's document is fetched once, with a context descended from the
// caller's, and once that context is done no further document is
// fetched.
func TestMetasearchFetchesSnippetsUnderContext(t *testing.T) {
	log := &fetchLog{}
	ms, test := buildTestMetasearcherWith(t, nil, func(_ int, db Database) Database {
		return fetchRecorder{Database: db, log: log}
	})
	type callerKey struct{}
	ctx := context.WithValue(context.Background(), callerKey{}, "caller")
	query, fused := "", 0
	for _, q := range test {
		*log = fetchLog{}
		items, _, err := ms.MetasearchContext(ctx, q, 2, Partial, 0.7, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) >= 2 {
			query, fused = q, len(items)
			break
		}
	}
	if query == "" {
		t.Fatal("no test query fused two results")
	}
	if len(log.ctxs) != fused {
		t.Errorf("%d fused results, %d Fetch calls", fused, len(log.ctxs))
	}
	for _, c := range log.ctxs {
		if c.Value(callerKey{}) != "caller" {
			t.Fatal("Fetch saw a context that does not descend from the caller's")
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	log.ctxs, log.onFetch = nil, cancel
	items, _, err := ms.MetasearchContext(ctx, query, 2, Partial, 0.7, 10)
	if err != nil || len(items) < 2 {
		t.Fatalf("cancelled while enriching: %d items, err %v", len(items), err)
	}
	if len(log.ctxs) != 1 {
		t.Errorf("%d Fetch calls, want the one that cancelled and none after", len(log.ctxs))
	}
}
