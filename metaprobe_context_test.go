package metaprobe

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/hidden"
)

// toggleFail wraps a database with a switchable outage: while down,
// every search fails with ErrUnavailable (and is counted).
type toggleFail struct {
	Database
	down      atomic.Bool
	downCalls atomic.Int64
}

func (f *toggleFail) Search(query string, topK int) (hidden.Result, error) {
	if f.down.Load() {
		f.downCalls.Add(1)
		return hidden.Result{}, fmt.Errorf("%w: %s is down", hidden.ErrUnavailable, f.Name())
	}
	return f.Database.Search(query, topK)
}

// TestSelectContextMatchesSequential: with default configuration
// (Speculation ≤ 1) and healthy backends, the context path must return
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
// metrics, tracing, drift detection, online refinement and speculative
// probing all enabled — from many goroutines mixing the sequential and
// context paths. Run under -race (CI does), this is the concurrency-
// safety proof for the probe-feedback path.
func TestConcurrentSelectionsRace(t *testing.T) {
	reg := NewMetrics()
	spans := NewSpanTracer(0)
	cfg := &Config{
		Metrics:          reg,
		Spans:            spans,
		Drift:            &DriftConfig{},
		OnlineRefinement: true,
		Speculation:      2,
		ProbeConcurrency: ProbeLimits{Global: 8, PerBackend: 2},
	}
	ms, testQueries := buildTestMetasearcherWith(t, cfg, nil)
	cal := NewCalibration(10)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := 0; qi < 8; qi++ {
				q := testQueries[(g*8+qi)%len(testQueries)]
				var res *SelectionResult
				var err error
				if qi%2 == 0 {
					res, err = ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
				} else {
					res, err = ms.SelectWithCertaintyContext(context.Background(), q, 2, Absolute, 0.9, -1)
				}
				if err != nil {
					errs <- err
					return
				}
				if qi == 3 {
					if _, err := ms.Audit(cal, q, Absolute, res.Databases, res.Certainty); err != nil {
						errs <- err
						return
					}
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
	if cal.Snapshot().Samples == 0 {
		t.Error("no calibration observations recorded")
	}
}

// TestSelectContextDegradesOnDeadBackend takes one backend down after
// training: context selections must keep answering (Degraded, the dead
// backend excluded), and once its circuit breaker opens the dead
// backend must stop being contacted at all.
func TestSelectContextDegradesOnDeadBackend(t *testing.T) {
	var failers []*toggleFail
	cfg := &Config{Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}}
	ms, testQueries := buildTestMetasearcherWith(t, cfg, func(i int, db Database) Database {
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
	// FailureThreshold=2 with a long cooldown: the dead backend may be
	// contacted at most twice before the breaker eats every further
	// probe without a network attempt.
	if calls := dead.downCalls.Load(); calls > 2 {
		t.Errorf("dead backend contacted %d times; breaker should cap at 2", calls)
	}
}
