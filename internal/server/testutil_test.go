package server

import (
	"context"
	"sync/atomic"
	"testing"

	"metaprobe"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// buildTestMetasearcher trains a small 6-database metasearcher for
// service tests. wrap, when non-nil, wraps each database after
// summaries are built (so summaries reflect the raw content).
func buildTestMetasearcher(t testing.TB, cfg *metaprobe.Config, wrap func(db metaprobe.Database) metaprobe.Database) (*metaprobe.Metasearcher, []string) {
	t.Helper()
	return buildTestMetasearcherN(t, 6, cfg, wrap)
}

// buildTestMetasearcherN is buildTestMetasearcher over the first n
// databases of the testbed.
func buildTestMetasearcherN(t testing.TB, n int, cfg *metaprobe.Config, wrap func(db metaprobe.Database) metaprobe.Database) (*metaprobe.Metasearcher, []string) {
	t.Helper()
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(0.01)[:n], 23)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}
	sums, err := metaprobe.ExactSummaries(dbs)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		for i := range dbs {
			dbs[i] = wrap(dbs[i])
		}
	}
	ms, err := metaprobe.New(dbs, sums, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := gen.TrainTest(stats.NewRNG(4), 150, 150, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	trainStrs := make([]string, len(train))
	for i, q := range train {
		trainStrs[i] = q.String()
	}
	if err := ms.Train(trainStrs); err != nil {
		t.Fatal(err)
	}
	testStrs := make([]string, len(test))
	for i, q := range test {
		testStrs[i] = q.String()
	}
	return ms, testStrs
}

// buildTestServer wires a single-tenant server over a fresh test
// metasearcher and registers cleanup.
func buildTestServer(t testing.TB, cfg Config) (*Server, *metaprobe.Metasearcher, []string) {
	t.Helper()
	ms, qs := buildTestMetasearcher(t, nil, nil)
	s := New(cfg)
	if err := s.AddTenant(DefaultTenant, ms); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, ms, qs
}

// gateCtl arms and releases a set of gated databases. While armed,
// every Search blocks until release — holding full-tier selections in
// flight while a test piles more requests onto the coalescer or the
// admission gauge. It starts disarmed so fixture training (which
// probes every database) runs through.
type gateCtl struct {
	armed atomic.Bool
	open  chan struct{}
}

func newGateCtl() *gateCtl { return &gateCtl{open: make(chan struct{})} }

// release lets all blocked (and future) searches through.
func (c *gateCtl) release() { close(c.open) }

// gate wraps one database under a shared gateCtl.
type gate struct {
	metaprobe.Database
	ctl *gateCtl
}

func (g *gate) SearchContext(ctx context.Context, query string, topK int) (hidden.Result, error) {
	if g.ctl.armed.Load() {
		<-g.ctl.open
	}
	return g.Database.SearchContext(ctx, query, topK)
}

// servedSelections reads the tenant's selection series off its
// registry: the latency histogram's count and the two
// metaprobe_selections_total counters. A request the handler refuses
// moves none of them.
func servedSelections(reg *metaprobe.Metrics) [3]int64 {
	return [3]int64{
		reg.Histogram("metaprobe_select_latency_seconds", nil).Count(),
		reg.Counter("metaprobe_selections_total", map[string]string{"reached": "false"}).Value(),
		reg.Counter("metaprobe_selections_total", map[string]string{"reached": "true"}).Value(),
	}
}
