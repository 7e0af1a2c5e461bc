package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metaprobe"
	"metaprobe/internal/core"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/probeexec"
	"metaprobe/internal/server"
	"metaprobe/internal/stats"
)

// spanRec is one recorded span. Spans of one replayed request share
// (Replay, Req); Parent is the ID of the span that was open when this
// one began, 0 for a root.
type spanRec struct {
	Replay string `json:"replay"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's own in-memory span recorder. A traced
// replay is sequential, so spans nest strictly in time even though
// they begin on different goroutines (client, handler, probe attempt),
// and the innermost open span is the parent of the next. All methods
// are no-ops on a nil recorder: that is the untraced path.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	replay string
	req    int
	spans  []spanRec
	open   []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// request names the request the following spans belong to.
func (r *recorder) request(replay string, req int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.replay, r.req = replay, req
	r.mu.Unlock()
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, spanRec{
		Replay: r.replay, Req: r.req, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.epoch)),
	})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler records a span around the daemon's handler tree.
type tracedHandler struct {
	rec  *recorder
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.rec.begin("server.handler")
	h.next.ServeHTTP(w, r)
	h.rec.end(id)
}

// Replay names, outermost depth first. Every replay answers the same
// requests one at a time on a fresh tenant of its own, entering the
// stack one public function deeper than the replay before it; an outer
// layer's time is the difference between two depths.
const (
	replayUntraced = "untraced" // as replayHTTP with no recorder: the tracing-overhead baseline
	replayHTTP     = "http"     // client round trip → handler wrapper
	replayDo       = "do"       // Server.Do
	replaySelect   = "select"   // Metasearcher.SelectWithCertaintyContext
	replayEngine   = "engine"   // the exploded selection loop
	replayWarm     = "warm"     // the uncounted first queries, at every depth
)

// traceWarm is how many uncounted queries open the replays.
const traceWarm = 2

// answer is a selection as any depth reports it.
type answer struct {
	dbs       []string
	probes    int
	certainty float64
	reached   bool
}

func answerOf(r *server.SelectResponse) answer {
	return answer{dbs: r.Databases, probes: r.Probes, certainty: r.Certainty, reached: r.Reached}
}

// matches reports whether two depths gave the same selection.
func (a answer) matches(b answer) bool {
	if a.probes != b.probes || a.reached != b.reached || len(a.dbs) != len(b.dbs) {
		return false
	}
	if d := a.certainty - b.certainty; d > 1e-9 || d < -1e-9 {
		return false
	}
	for i := range a.dbs {
		if a.dbs[i] != b.dbs[i] {
			return false
		}
	}
	return true
}

// traceResult is the outcome of the traced replays of one workload.
type traceResult struct {
	rec      *recorder
	requests int
	// wall is each replay's summed request time.
	wall map[string]time.Duration
	// answers holds every depth's answer per request, for verification.
	answers map[string][]answer
	// loadMs and tableBuildMs time core.LoadModel and
	// core.NewModelVersion on the snapshot.
	loadMs, tableBuildMs []float64
}

// runTrace answers the first n requests of rl one at a time at every
// depth, recording spans from the benchmark's own wrappers only, and
// times loads model loads.
func runTrace(fix *fixture, w workload, rl *requestList, n, loads int) (tr *traceResult, err error) {
	tr = &traceResult{
		rec:      newRecorder(),
		requests: n,
		wall:     make(map[string]time.Duration),
		answers:  make(map[string][]answer),
	}
	// Every replay first answers a few queries from outside the
	// population (recorded under replayWarm and not counted), so that a
	// fresh tenant's first-request costs do not land on one depth.
	warm, err := fix.gen.Pool(stats.NewRNG(poolSeed).Fork(3), traceWarm-traceWarm/2, traceWarm/2)
	if err != nil {
		return nil, err
	}
	qs := make([]string, 0, traceWarm+n)
	for _, q := range warm {
		qs = append(qs, q.String())
	}
	for _, q := range rl.order[:n] {
		qs = append(qs, rl.pool[q].String())
	}
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		if bodies[i], err = json.Marshal(selectRequest(q)); err != nil {
			return nil, err
		}
	}

	// Model load and RD-table build, the two halves of a reload.
	var ver *core.ModelVersion
	for i := 0; i < loads; i++ {
		t0 := time.Now()
		model, err := core.LoadModel(fix.snapshot)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ver = core.NewModelVersion(model, "load", t1)
		tr.loadMs = append(tr.loadMs, ms(t1.Sub(t0)))
		tr.tableBuildMs = append(tr.tableBuildMs, ms(time.Since(t1)))
	}

	// One fresh tenant per depth, all up for the whole replay.
	var stacks []*stack
	defer func() {
		for _, st := range stacks {
			if cerr := st.close(); err == nil {
				err = cerr
			}
		}
	}()
	newStack := func(rec *recorder) (*stack, error) {
		st, err := fix.newStack(w, rec)
		if err == nil {
			stacks = append(stacks, st)
		}
		return st, err
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	roundTrip := func(st *stack, rec *recorder) func(string, []byte) (answer, error) {
		return func(_ string, body []byte) (answer, error) {
			var resp server.SelectResponse
			id := rec.begin("client.roundtrip")
			err := post(client, st.url, body, &resp)
			rec.end(id)
			return answerOf(&resp), err
		}
	}
	ctx := context.Background()
	httpStack, err := newStack(tr.rec)
	if err != nil {
		return nil, err
	}
	untracedStack, err := newStack(nil)
	if err != nil {
		return nil, err
	}
	doStack, err := newStack(tr.rec)
	if err != nil {
		return nil, err
	}
	selectStack, err := newStack(tr.rec)
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(fix, w, ver, tr.rec)
	if err != nil {
		return nil, err
	}
	depths := []struct {
		replay string
		call   func(query string, body []byte) (answer, error)
	}{
		{replayHTTP, roundTrip(httpStack, tr.rec)},
		{replayUntraced, roundTrip(untracedStack, nil)},
		{replayDo, func(query string, _ []byte) (answer, error) {
			id := tr.rec.begin("server.do")
			resp, err := doStack.srv.Do(ctx, selectRequest(query))
			tr.rec.end(id)
			if err != nil {
				return answer{}, err
			}
			return answerOf(resp), nil
		}},
		{replaySelect, func(query string, _ []byte) (answer, error) {
			id := tr.rec.begin("facade.select")
			res, err := selectStack.ms.SelectWithCertaintyContext(ctx, query, selectK, metaprobe.Absolute, selectThreshold, -1)
			tr.rec.end(id)
			if err != nil {
				return answer{}, err
			}
			return answer{dbs: res.Databases, probes: res.Probes, certainty: res.Certainty, reached: res.Reached}, nil
		}},
		{replayEngine, func(query string, _ []byte) (answer, error) { return eng.selectOne(ctx, query) }},
	}

	// Each request is answered at every depth before the next one is
	// sent, so a slow spell of the host falls on all depths alike and
	// the differences between depths stay clean. The depth that goes
	// first finds the caches coldest; the order rotates per request so
	// that no depth is always first.
	for i, q := range qs {
		for k := range depths {
			d := depths[(i+k)%len(depths)]
			counted := i >= traceWarm
			if counted {
				tr.rec.request(d.replay, i-traceWarm)
			} else {
				tr.rec.request(replayWarm, i)
			}
			t0 := time.Now()
			a, err := d.call(q, bodies[i])
			if err != nil {
				return nil, fmt.Errorf("%s replay, query %q: %w", d.replay, q, err)
			}
			if counted {
				tr.wall[d.replay] += time.Since(t0)
				tr.answers[d.replay] = append(tr.answers[d.replay], a)
			}
		}
	}
	return tr, nil
}

// engine is the selection loop of the facade and the probe executor
// written out call by call (Speculation ≤ 1, no hedging), so that each
// call into core, estimate and probeexec gets its own span. It does
// the work SelectWithCertaintyContext does, minus the facade's
// observability glue, which is what facade.self_us then measures.
type engine struct {
	rec      *recorder
	ver      *core.ModelVersion
	rel      *estimate.DocFrequency
	exec     *probeexec.Executor
	dbs      []metaprobe.Database
	refine   bool
	shell    *core.Selection
	searches atomic.Int64
}

func newEngine(fix *fixture, w workload, ver *core.ModelVersion, rec *recorder) (*engine, error) {
	rel, ok := ver.Model.Rel.(*estimate.DocFrequency)
	if !ok {
		return nil, fmt.Errorf("snapshot relevancy is %s, want doc-frequency", ver.Model.Rel.Name())
	}
	e := &engine{
		rec: rec, ver: ver, rel: rel, refine: w.refine,
		exec: probeexec.NewExecutor(probeexec.Config{Metrics: metaprobe.NewMetrics()}),
	}
	e.dbs = fix.tenantDBs(w, &e.searches, rec)
	return e, nil
}

// span times one call into a layer.
func (e *engine) span(name string, f func()) {
	id := e.rec.begin(name)
	f()
	e.rec.end(id)
}

func (e *engine) selectOne(ctx context.Context, query string) (answer, error) {
	root := e.rec.begin("engine.select")
	defer e.rec.end(root)
	numTerms := len(strings.Fields(query))
	model := e.ver.Model

	var sel *core.Selection
	e.span("core.fill", func() {
		sel = e.ver.FillSelection(e.shell, query, numTerms, core.Absolute, selectK)
	})
	// FillSelection estimates every database itself; the estimate is
	// repeated here on its own so the trace can tell estimation from
	// table lookup (after the fill, so the fill runs as cold as it is
	// served). report subtracts this extra work again.
	e.span("estimate", func() {
		terms := e.rel.Terms(query)
		for _, sum := range model.Summaries.Summaries {
			e.rel.EstimateTerms(sum, terms)
		}
	})
	e.shell = sel
	defer sel.Release()

	// A fresh policy per request, as the facade allocates one: a
	// core.Greedy carries per-selection scratch and is never shared.
	policy := &core.Greedy{}
	var out answer
	for {
		var set []int
		var cur float64
		e.span("core.best", func() { set, cur = sel.BestView() })
		out.dbs = out.dbs[:0]
		for _, i := range set {
			out.dbs = append(out.dbs, e.dbs[i].Name())
		}
		out.certainty = cur
		if cur >= selectThreshold {
			out.reached = true
			return out, nil
		}
		if len(sel.UnprobedView()) == 0 {
			return out, nil
		}
		var next int
		var err error
		e.span("core.rank", func() { next, err = policy.Next(sel, selectThreshold) })
		if errors.Is(err, core.ErrNoInformativeProbe) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var v float64
		e.span("probeexec.probe", func() {
			v, err = e.exec.Probe(ctx, e.dbs[next].Name(), func(c context.Context) (float64, error) {
				return e.rel.Probe(hidden.WithContext(c, e.dbs[next]), query)
			})
		})
		if err != nil {
			return out, err
		}
		out.probes++
		if e.refine {
			e.span("core.observe", func() { err = e.ver.ObserveProbe(next, query, numTerms, v) })
			if err != nil {
				return out, err
			}
		}
		e.span("core.apply", func() { sel.ApplyProbe(next, v) })
		// The executor's loop reads the certainty after every probe for
		// its trajectory; the view is then cached for the loop top.
		e.span("core.best", func() { sel.BestView() })
	}
}

// perRequest sums, for one replay, the duration of every span of the
// given name per request, and counts them.
func (tr *traceResult) perRequest(replay, name string) (total []float64, calls []float64) {
	total = make([]float64, tr.requests)
	calls = make([]float64, tr.requests)
	for i := range tr.rec.spans {
		s := &tr.rec.spans[i]
		if s.Replay == replay && s.Name == name {
			total[s.Req] += float64(s.End-s.Start) / 1e3
			calls[s.Req]++
		}
	}
	return total, calls
}

// each returns, for every span of the given name in one replay, its
// duration and its self time (the duration minus its child spans), in
// microseconds.
func (tr *traceResult) each(replay, name string) (dur, self []float64) {
	children := make(map[int]float64)
	for i := range tr.rec.spans {
		s := &tr.rec.spans[i]
		if s.Replay == replay {
			children[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	for i := range tr.rec.spans {
		s := &tr.rec.spans[i]
		if s.Replay == replay && s.Name == name {
			d := float64(s.End-s.Start) / 1e3
			dur = append(dur, d)
			self = append(self, d-children[s.ID])
		}
	}
	return dur, self
}

// diff subtracts b from a per request.
func diff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report adds the per-layer timings the spans give. Timings are medians
// per request; a layer that is the difference of two depths compares
// the same request across the two replays.
func (tr *traceResult) report(rep *report) {
	client, _ := tr.perRequest(replayHTTP, "client.roundtrip")
	handler, _ := tr.perRequest(replayHTTP, "server.handler")
	do, _ := tr.perRequest(replayDo, "server.do")
	sel, _ := tr.perRequest(replaySelect, "facade.select")
	eng, _ := tr.perRequest(replayEngine, "engine.select")
	est, _ := tr.perRequest(replayEngine, "estimate")
	fill, _ := tr.perRequest(replayEngine, "core.fill")
	best, bestCalls := tr.perRequest(replayEngine, "core.best")
	rank, rankCalls := tr.perRequest(replayEngine, "core.rank")
	apply, _ := tr.perRequest(replayEngine, "core.apply")
	observe, _ := tr.perRequest(replayEngine, "core.observe")
	probe, _ := tr.perRequest(replayEngine, "probeexec.probe")
	_, searchCalls := tr.perRequest(replayEngine, "hidden.search")
	searchEach, _ := tr.each(replayEngine, "hidden.search")
	_, probeSelf := tr.each(replayEngine, "probeexec.probe")

	// The engine replay estimates twice (see selectOne); the facade
	// does it once, inside the fill.
	engOnce := diff(eng, est)
	transport := diff(client, handler)
	codec := diff(handler, do)
	serverSelf := diff(do, sel)
	facadeSelf := diff(sel, engOnce)
	fillSelf := diff(fill, est)

	note := fmt.Sprintf("traced replay of %d requests", tr.requests)
	for _, m := range []struct {
		name  string
		value float64
		unit  string
	}{
		{"server.transport_us", median(transport), "us"},
		{"server.codec_us", median(codec), "us"},
		{"server.self_us", median(serverSelf), "us"},
		{"facade.select_us", median(sel), "us"},
		{"facade.self_us", median(facadeSelf), "us"},
		{"estimate.us", median(est), "us"},
		{"core.fill_us", median(fillSelf), "us"},
		{"core.best_us", median(best), "us"},
		{"core.best_calls", mean(bestCalls), "count"},
		{"core.rank_us", median(rank), "us"},
		{"core.rank_calls", mean(rankCalls), "count"},
		{"core.apply_us", median(apply), "us"},
		{"core.observe_us", median(observe), "us"},
		{"probeexec.overhead_us", median(probeSelf), "us"},
		{"hidden.search_us", median(searchEach), "us"},
		{"hidden.search_calls", mean(searchCalls), "count"},
		{"core.load_ms", median(tr.loadMs), "ms"},
		{"core.table_build_ms", median(tr.tableBuildMs), "ms"},
		{"trace.overhead_frac", float64(tr.wall[replayHTTP])/float64(tr.wall[replayUntraced]) - 1, "ratio"},
	} {
		rep.add(m.name, m.value, m.unit, note)
	}

	// Coverage: do the per-request medians of the named layers add up
	// to the median client round trip? The engine's calls are summed
	// per request first. Outer layers are clamped at zero, so when a
	// deeper replay runs slower than the shallower one (the written-out
	// loop no longer mirrors the served path) coverage rises above 1;
	// unattributed loop glue pulls it below.
	inner := make([]float64, tr.requests)
	for i := range inner {
		inner[i] = fill[i] + best[i] + rank[i] + apply[i] + observe[i] + probe[i]
	}
	named := median(inner)
	for _, layer := range [][]float64{transport, codec, serverSelf, facadeSelf} {
		if t := median(layer); t > 0 {
			named += t
		}
	}
	rep.add("trace.coverage", named/median(client), "ratio", note)
}
