package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"metaprobe"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/server"
	"metaprobe/internal/stats"
)

// Testbed size of the benchmark: the health testbed at a tenth of the
// paper's size, trained on 300 queries per term count.
const (
	benchScale  = 0.1
	benchTrainN = 300
	corpusSeed  = 2004
)

// fixture is what set-up leaves behind for the workloads: the testbed,
// the trained model's snapshot on disk and the query generator.
type fixture struct {
	tb       *hidden.Testbed
	gen      *queries.Generator
	snapshot string
	// Set-up decomposition, in seconds.
	corpusBuild, summaryBuild, train float64
}

// buildFixture builds the testbed, its exact summaries and the trained
// model, and snapshots the model into dir — the boot sequence of
// cmd/metaprobed up to the point where tenants load.
func buildFixture(dir string, scale float64, trainN int) (*fixture, error) {
	f := &fixture{snapshot: filepath.Join(dir, "model.mpb")}
	world := corpus.HealthWorld()
	start := time.Now()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(scale), corpusSeed)
	if err != nil {
		return nil, err
	}
	f.tb = tb
	f.corpusBuild = time.Since(start).Seconds()

	start = time.Now()
	sums, err := metaprobe.ExactSummaries(tb.Databases())
	if err != nil {
		return nil, err
	}
	f.summaryBuild = time.Since(start).Seconds()

	f.gen, err = queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return nil, err
	}
	pool, err := f.gen.Pool(stats.NewRNG(corpusSeed).Fork(1), trainN, trainN)
	if err != nil {
		return nil, err
	}
	trainQs := make([]string, len(pool))
	for i, q := range pool {
		trainQs[i] = q.String()
	}
	start = time.Now()
	ms, err := metaprobe.New(tb.Databases(), sums, nil)
	if err != nil {
		return nil, err
	}
	if err := ms.Train(trainQs); err != nil {
		return nil, err
	}
	f.train = time.Since(start).Seconds()
	if err := ms.SaveModel(f.snapshot); err != nil {
		return nil, err
	}
	return f, nil
}

// backend wraps one database of a tenant: it counts the searches that
// reach it and, on a traced replay, records a span around each.
type backend struct {
	hidden.Database
	searches *atomic.Int64
	rec      *recorder
}

func (b backend) Search(query string, topK int) (hidden.Result, error) {
	return b.SearchContext(context.Background(), query, topK)
}

// SearchContext implements hidden.ContextDatabase.
func (b backend) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	b.searches.Add(1)
	id := b.rec.begin("hidden.search")
	res, err := hidden.SearchContext(ctx, b.Database, query, topK)
	b.rec.end(id)
	return res, err
}

// stack is one tenant loaded from the snapshot behind the daemon's
// handler tree on a loopback listener.
type stack struct {
	ms       *metaprobe.Metasearcher
	srv      *server.Server
	hs       *http.Server
	url      string
	served   chan error
	searches atomic.Int64
}

// newStack loads a fresh tenant for w and serves it. The handler tree
// is srv.Handler(), the one cmd/metaprobed mounts, with the Metrics and
// Spans registries on as the daemon has them; drift detection and
// refresh are off so that a frozen workload's model never moves. A
// non-nil rec records spans at the handler and at every backend.
func (f *fixture) newStack(w workload, rec *recorder) (*stack, error) {
	s := &stack{served: make(chan error, 1)}
	dbs := f.tenantDBs(w, &s.searches, rec)
	reg := metaprobe.NewMetrics()
	spans := metaprobe.NewSpanTracer(0)
	spans.Bind(reg)
	var err error
	s.ms, err = metaprobe.NewFromModel(dbs, f.snapshot, &metaprobe.Config{
		Metrics:          reg,
		Spans:            spans,
		OnlineRefinement: w.refine,
	})
	if err != nil {
		return nil, err
	}
	s.srv = server.New(server.Config{Metrics: reg, Spans: spans})
	if err := s.srv.AddTenant(server.DefaultTenant, s.ms); err != nil {
		s.srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	handler := s.srv.Handler()
	if rec != nil {
		handler = tracedHandler{rec: rec, next: handler}
	}
	s.hs = &http.Server{Handler: handler}
	s.url = "http://" + ln.Addr().String() + "/v1/select"
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// tenantDBs wraps the testbed for one tenant: the workload's probe
// delay innermost, the counting (and tracing) backend outermost.
func (f *fixture) tenantDBs(w workload, searches *atomic.Int64, rec *recorder) []metaprobe.Database {
	dbs := make([]metaprobe.Database, f.tb.Len())
	for i := range dbs {
		db := f.tb.DB(i)
		if w.delay > 0 {
			db = hidden.NewLatency(db, w.delay)
		}
		dbs[i] = backend{Database: db, searches: searches, rec: rec}
	}
	return dbs
}

// close stops the listener and the tenant and waits for the serving
// goroutine to end. Call it once.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// setupResult is one timed set-up.
type setupResult struct {
	fix     *fixture
	seconds float64
	heapMB  float64
}

// runSetup times everything a daemon does before it can answer the
// first request: testbed, summaries, training, snapshot, tenant load
// and listener. The stack it brought up is closed again; workloads
// load their own tenants from the snapshot.
func runSetup(dir string, scale float64, trainN int) (setupResult, error) {
	start := time.Now()
	fix, err := buildFixture(dir, scale, trainN)
	if err != nil {
		return setupResult{}, err
	}
	st, err := fix.newStack(workload{}, nil)
	if err != nil {
		return setupResult{}, err
	}
	res := setupResult{fix: fix, seconds: time.Since(start).Seconds()}
	// Twice: the first cycle only ages sync.Pool contents, the second
	// drops them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	if err := st.close(); err != nil {
		return setupResult{}, err
	}
	return res, nil
}

// scratchDir makes a private directory under out/ for the snapshot, so
// the benchmark writes only inside its checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp("out", "run-")
	if err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return dir, nil
}
