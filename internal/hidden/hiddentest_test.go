package hidden_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"metaprobe/internal/hidden"
	"metaprobe/internal/hidden/hiddentest"
	"metaprobe/internal/textindex"
)

func buildSmallLocal(t *testing.T) *hidden.Local {
	t.Helper()
	ix := textindex.NewIndex()
	docs := []string{
		"breast cancer research update",
		"breast cancer treatment",
		"lung cancer study",
		"nutrition and diet",
	}
	l := hidden.NewLocal("testdb", ix)
	for i, d := range docs {
		id := fmt.Sprintf("d%d", i)
		ix.AddTerms(id, textindex.Tokenize(d))
		l.StoreText(d)
	}
	return l
}

func TestCounting(t *testing.T) {
	db := hiddentest.NewCounting(buildSmallLocal(t))
	for i := 0; i < 3; i++ {
		if _, err := db.SearchContext(context.Background(), "cancer", 0); err != nil {
			t.Fatal(err)
		}
	}
	if db.Searches() != 3 {
		t.Errorf("Searches = %d, want 3", db.Searches())
	}
	if db.Size() != 4 {
		t.Errorf("Size passthrough = %d, want 4", db.Size())
	}
}

func TestFailEvery(t *testing.T) {
	db := hiddentest.NewFailEvery(buildSmallLocal(t), 3)
	var failures int
	for i := 0; i < 9; i++ {
		if _, err := db.SearchContext(context.Background(), "cancer", 0); err != nil {
			if !errors.Is(err, hidden.ErrUnavailable) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Errorf("failures = %d, want 3", failures)
	}
	never := hiddentest.NewFailEvery(buildSmallLocal(t), 0)
	if _, err := never.SearchContext(context.Background(), "cancer", 0); err != nil {
		t.Errorf("n=0 should never fail: %v", err)
	}
}

// TestMiddlewareComposition stacks all wrappers and verifies the whole
// chain still behaves like a Database with probe accounting.
func TestMiddlewareComposition(t *testing.T) {
	local := buildSmallLocal(t)
	counting := hiddentest.NewCounting(local)
	lat := hidden.NewLatency(hiddentest.NewFailEvery(counting, 2), 0)

	res, err := lat.SearchContext(context.Background(), "breast cancer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("MatchCount = %d", res.MatchCount)
	}
	if _, err := lat.SearchContext(context.Background(), "breast cancer", 0); !errors.Is(err, hidden.ErrUnavailable) {
		t.Errorf("second search through FailEvery(2): %v, want hidden.ErrUnavailable", err)
	}
	if counting.Searches() != 1 {
		t.Errorf("counted %d searches, want 1 (the failed one never reached the backend)", counting.Searches())
	}
	if _, err := lat.Fetch(context.Background(), "d1"); err != nil {
		t.Errorf("Fetch through the chain: %v", err)
	}
}

// TestFetchThroughWrappersRidesTheWire: a fetch through Latency,
// Counting and FailEvery reaches the HTTP client with the caller's
// context, which its wire request then carries: the caller's client
// trace sees the connection, and once the caller's context is done no
// request reaches the server and the error wraps the context's, which
// the probe engine reads to tell a cancelled probe from a failed one.
func TestFetchThroughWrappersRidesTheWire(t *testing.T) {
	var docRequests atomic.Int64
	inner := hidden.NewServer(buildSmallLocal(t))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/doc") {
			docRequests.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := hidden.NewClient("remote", srv.URL)
	chain := hidden.NewLatency(hiddentest.NewCounting(hiddentest.NewFailEvery(client, 0)), 0)

	var conns atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { conns.Add(1) },
	})
	if text, err := chain.Fetch(ctx, "d1"); err != nil || text != "breast cancer treatment" {
		t.Fatalf("Fetch = %q, %v", text, err)
	}
	if conns.Load() != 1 || docRequests.Load() != 1 {
		t.Errorf("the caller's trace saw %d connections and the server %d requests, want 1 and 1", conns.Load(), docRequests.Load())
	}

	ctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := chain.Fetch(ctx, "d1"); !errors.Is(err, context.Canceled) {
		t.Errorf("Fetch on a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := client.SearchContext(ctx, "cancer", 0); !errors.Is(err, context.Canceled) || !errors.Is(err, hidden.ErrUnavailable) {
		t.Errorf("search on a cancelled context: %v, want context.Canceled and hidden.ErrUnavailable", err)
	}
	if docRequests.Load() != 1 {
		t.Errorf("the server saw %d requests, want none after the cancel", docRequests.Load()-1)
	}
}

// TestFullChainConcurrent hammers Latency → FailEvery → Counting → Local
// from many goroutines; run under -race it pins down that the wrappers
// are safe for concurrent use once constructed.
func TestFullChainConcurrent(t *testing.T) {
	counting := hiddentest.NewCounting(buildSmallLocal(t))
	chain := hidden.NewLatency(hiddentest.NewFailEvery(counting, 9), 0)
	const workers, iters = 8, 150
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := chain.SearchContext(context.Background(), "cancer", 0); err != nil {
					if !errors.Is(err, hidden.ErrUnavailable) {
						t.Errorf("unexpected error: %v", err)
					}
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	const total = workers * iters
	if got := failures.Load(); got != total/9 {
		t.Errorf("failures = %d, want %d", got, total/9)
	}
	if got := counting.Searches(); got != total-failures.Load() {
		t.Errorf("backend searches = %d, want %d", got, total-failures.Load())
	}
}
