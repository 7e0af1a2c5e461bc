package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"metaprobe"
	"metaprobe/internal/eval"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// sizing holds what the self-test shrinks; the command line always
// runs benchSizing.
type sizing struct {
	scale       float64
	trainN      int
	setups      int // timed set-ups per run; setup_s is their median
	minRequests int
	modelLoads  int // timed model loads of a traced run
	minTrace    int // least requests in a traced replay
	warmPerConn int // warm-up requests per connection before timing
}

var benchSizing = sizing{scale: benchScale, trainN: benchTrainN, setups: 5, minRequests: minRequests, modelLoads: 7, minTrace: 5, warmPerConn: 8}

// options are the driver's arguments.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's metrics in print order with their notes.
type report struct {
	names []string
	notes map[string]string
	res   result
}

func newReport() *report {
	return &report{notes: make(map[string]string), res: result{Metrics: make(map[string]metricValue)}}
}

func (r *report) add(name string, value float64, unit, note string) {
	r.names = append(r.names, name)
	r.notes[name] = note
	r.res.Metrics[name] = metricValue{Value: value, Unit: unit}
}

func (r *report) print(w io.Writer) {
	for _, name := range r.names {
		m := r.res.Metrics[name]
		fmt.Fprintf(w, "%-24s %14.6g %-6s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
}

// setupSummary is the set-up phase of one invocation.
type setupSummary struct {
	fix     *fixture
	seconds []float64
	heapMB  float64
}

// setUp runs the timed set-up n times and keeps the last fixture.
func setUp(dir string, sz sizing, n int) (*setupSummary, error) {
	s := &setupSummary{}
	for i := 0; i < n; i++ {
		s.fix = nil // let the previous testbed go before the heap is read
		r, err := runSetup(dir, sz.scale, sz.trainN)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s.fix, s.heapMB = r.fix, r.heapMB
		s.seconds = append(s.seconds, r.seconds)
	}
	return s, nil
}

// procStats are the process-wide counters read before and after the
// load phase. Server and load generator share the process, so the
// deltas include the client side of every request.
type procStats struct {
	cpu       time.Duration
	mallocs   uint64
	gcPause   time.Duration
	mutexWait float64 // seconds
}

func readProcStats() procStats {
	var ru syscall.Rusage
	var p procStats
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.mallocs = mem.Mallocs
	p.gcPause = time.Duration(mem.PauseTotalNs)
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		p.mutexWait = sample[0].Value.Float64()
	}
	return p
}

// truth is what the answers of one request list are checked against:
// the direct engine's answer (frozen workloads) and the golden top-k
// per query of the pool.
type truth struct {
	direct []answer
	topk   [][]int
	index  map[string]int // database name → testbed index
}

// buildTruth answers every query the list uses with a second
// metasearcher loaded from the same snapshot, bypassing the daemon and
// any probe delay, and builds the golden standard for cor_a.
func buildTruth(fix *fixture, w workload, rl *requestList) (*truth, error) {
	t := &truth{index: make(map[string]int)}
	for i, db := range fix.tb.Databases() {
		t.index[db.Name()] = i
	}
	used := make([]bool, len(rl.pool))
	for _, q := range rl.order {
		used[q] = true
	}
	var qs []queries.Query
	var at []int
	for q, u := range used {
		if u {
			qs = append(qs, rl.pool[q])
			at = append(at, q)
		}
	}
	golden, err := eval.BuildGolden(fix.tb, metaprobe.DocFrequencyRelevancy(), qs)
	if err != nil {
		return nil, err
	}
	t.topk = make([][]int, len(rl.pool))
	for i, g := range golden {
		t.topk[at[i]] = g.TopK(selectK)
	}
	if !w.frozen() {
		return t, nil
	}
	direct, err := metaprobe.NewFromModel(fix.tb.Databases(), fix.snapshot, nil)
	if err != nil {
		return nil, err
	}
	t.direct = make([]answer, len(rl.pool))
	errs := make([]error, len(at))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(at); i += workers {
				res, err := direct.SelectWithCertainty(rl.pool[at[i]].String(), selectK, metaprobe.Absolute, selectThreshold, -1)
				if err != nil {
					errs[i] = err
					continue
				}
				t.direct[at[i]] = answer{dbs: res.Databases, probes: res.Probes, certainty: res.Certainty, reached: res.Reached}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("direct engine: %w", err)
		}
	}
	return t, nil
}

// corA scores one answer against the golden top-k.
func (t *truth) corA(q int, dbs []string) float64 {
	set := make([]int, len(dbs))
	for i, name := range dbs {
		idx, ok := t.index[name]
		if !ok {
			return 0
		}
		set[i] = idx
	}
	sort.Ints(set)
	return eval.CorA(set, t.topk[q])
}

// failure explains why a sample counts as failed, "" if it does not.
func (t *truth) failure(w workload, q int, s *sample) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case len(s.resp.Databases) != selectK:
		return fmt.Sprintf("answer has %d databases, want %d", len(s.resp.Databases), selectK)
	case !w.frozen():
		return ""
	case s.resp.Tier != "full":
		return fmt.Sprintf("answered at tier %q (%s)", s.resp.Tier, s.resp.ShedReason)
	case !answerOf(&s.resp).matches(t.direct[q]):
		return fmt.Sprintf("answer %v differs from the direct engine's %v", answerOf(&s.resp), t.direct[q])
	}
	return ""
}

// rateSegments is how many equal-count stretches of a closed-loop run
// select_rps is the median over, so that one stalled second does not
// set it.
const rateSegments = 5

// segmentRates splits the sorted completion times (seconds from the
// start) into equal-count segments and returns each one's rate.
func segmentRates(done []float64, segments int) []float64 {
	rates := make([]float64, 0, segments)
	from, at := 0, 0.0
	for k := 1; k <= segments; k++ {
		to := k * len(done) / segments
		if to == from {
			continue
		}
		rates = append(rates, float64(to-from)/(done[to-1]-at))
		from, at = to, done[to-1]
	}
	return rates
}

// bestOfPasses returns, sorted, the lowest latency over the passes of
// every entry of an open loop's trace that was answered.
func bestOfPasses(byEntry [][]float64) []float64 {
	out := make([]float64, 0, len(byEntry))
	for _, passes := range byEntry {
		if len(passes) > 0 {
			out = append(out, sortedCopy(passes)[0])
		}
	}
	sort.Float64s(out)
	return out
}

// requestCount sizes a workload's list for a measuring budget.
func (w workload) requestCount(seconds float64, sz sizing) int {
	per := float64(w.perSecond)
	if w.open {
		per = w.rate
	}
	n := int(per * seconds)
	if n < sz.minRequests {
		n = sz.minRequests
	}
	if w.open && w.cycle > 0 && n > w.cycle {
		// Whole passes over the trace, to the nearest.
		n = (n + w.cycle/2) / w.cycle * w.cycle
	}
	return n
}

// warmUp sends n queries from outside the workload's population down
// the connections the load phase will use, so connections, the shell
// cache and pooled scratch exist before timing starts.
func warmUp(fix *fixture, st *stack, w workload, n int) error {
	pool, err := fix.gen.Pool(stats.NewRNG(poolSeed).Fork(3), n-n/2, n/2)
	if err != nil {
		return err
	}
	rl := &requestList{pool: pool, order: make([]int, len(pool))}
	for i := range rl.order {
		rl.order[i] = i
	}
	warm := w
	warm.open, warm.reloads = false, 0
	res, err := drive(st, warm, rl, fix.snapshot)
	if err != nil {
		return err
	}
	for i := range res.samples {
		if err := res.samples[i].err; err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// loadStats is what the load phase of one run measured, over the
// answered requests.
type loadStats struct {
	attempted, failed int
	// Every answered request's latency and send lag in ms and its
	// completion time in seconds from the start, each sorted.
	all, lag, done []float64
	// lat is what the latency quantiles are taken over, sorted: all, or
	// for an open loop each trace entry's best latency over the passes.
	// A slow spell of the host is charged by an open loop to every
	// request it delayed and fills the top 1% of a pass; it does not
	// recur at the same entry on every pass, while what the trace itself
	// causes, a heavy request and the queue behind it, does.
	lat  []float64
	wall time.Duration
	// Sums over the answered requests.
	applied, corA, reached, coalesced, shed float64
	searches, peak                          int64
	before, after                           procStats
	reloadMs                                []float64 // ReloadModel calls made under load
	// backlog is set when an open loop fell behind its schedule.
	backlog string
}

func (ls *loadStats) answered() float64 { return float64(len(ls.all)) }

// measureLoad loads a fresh tenant for w, drives the request list at it
// through the loopback listener and checks every answer.
func measureLoad(fix *fixture, w workload, rl *requestList, tr *truth, sz sizing, out io.Writer) (ls *loadStats, err error) {
	st, err := fix.newStack(w, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()
	if err := warmUp(fix, st, w, sz.warmPerConn*w.connections()); err != nil {
		return nil, err
	}

	loop := fmt.Sprintf("closed loop, %d keep-alive connections", w.connections())
	if w.open {
		loop = fmt.Sprintf("open loop, Poisson arrivals at %g req/s over %d keep-alive connections, latency from due time", w.rate, w.connections())
	}
	fmt.Fprintf(out, "# workload %s: %s, %d requests over %d distinct queries\n", w.name, loop, len(rl.order), len(rl.pool))
	fmt.Fprintf(out, "# traffic crossed the host's loopback interface (127.0.0.1), not a real link; server and load generator share one process, GOMAXPROCS=%d\n",
		runtime.GOMAXPROCS(0))

	ls = &loadStats{attempted: len(rl.order)}
	searches0 := st.searches.Load()
	ls.before = readProcStats()
	load, err := drive(st, w, rl, fix.snapshot)
	if err != nil {
		return nil, err
	}
	ls.after = readProcStats()
	ls.searches = st.searches.Load() - searches0
	ls.peak = st.srv.Stats().PeakInflight
	ls.wall = load.wall

	var byEntry [][]float64 // open loop: each trace entry's latencies, one per pass
	if w.open {
		byEntry = make([][]float64, rl.cycle)
	}
	for i := range load.samples {
		s := &load.samples[i]
		q := rl.order[i]
		if why := tr.failure(w, q, s); why != "" {
			if ls.failed++; ls.failed <= 5 {
				fmt.Fprintf(os.Stderr, "benchmark: %s request %d (%q) failed: %s\n", w.name, i, rl.pool[q], why)
			}
			continue
		}
		ls.all = append(ls.all, ms(s.latency))
		if w.open {
			e := (rl.start + i) % rl.cycle
			byEntry[e] = append(byEntry[e], ms(s.latency))
		}
		ls.lag = append(ls.lag, ms(s.lag))
		ls.done = append(ls.done, s.done.Seconds())
		ls.corA += tr.corA(q, s.resp.Databases)
		if s.resp.Reached {
			ls.reached++
		}
		if s.resp.Coalesced {
			ls.coalesced++
		} else {
			ls.applied += float64(s.resp.Probes)
		}
		if s.resp.Tier != "full" {
			ls.shed++
		}
	}
	if len(ls.all) == 0 {
		return nil, fmt.Errorf("no request was answered")
	}
	sort.Float64s(ls.all)
	ls.lat = ls.all
	if w.open {
		ls.lat = bestOfPasses(byEntry)
	}
	sort.Float64s(ls.lag)
	sort.Float64s(ls.done)

	for _, d := range load.reloads {
		ls.reloadMs = append(ls.reloadMs, ms(d))
	}
	if w.open {
		offered := float64(len(rl.order)) / rl.due[len(rl.due)-1].Seconds()
		if rate := ls.answered() / ls.wall.Seconds(); rate < 0.98*offered {
			ls.backlog = fmt.Sprintf("; BACKLOG GROWING: completed %.1f req/s of %.1f offered, latencies are not steady-state", rate, offered)
		}
	}
	return ls, nil
}

// endToEnd reports the metrics a user of the daemon would see.
func (ls *loadStats) endToEnd(rep *report, su *setupSummary, w workload) {
	n, answered := len(ls.lat), ls.answered()
	rep.add("setup_s", median(su.seconds), "s", fmt.Sprintf("median of %d set-ups: testbed, summaries, training, snapshot, tenant load, listener", len(su.seconds)))
	rep.add("heap_after_setup_mb", su.heapMB, "MiB", "live heap after set-up and two forced GCs")
	rps, rpsNote := median(segmentRates(ls.done, rateSegments)), fmt.Sprintf("median of %d equal-count segments", rateSegments)
	latNote := fmt.Sprintf("n=%d", n)
	if w.open {
		// An open loop that keeps up answers at the offered rate, and the
		// parts of an arrival schedule differ in rate by design.
		rps, rpsNote = answered/ls.wall.Seconds(), "whole run"
		latNote = fmt.Sprintf("over the trace's %d entries, each at its best of %d passes; all %d samples: p50 %.4g ms, p99 %.4g ms",
			n, len(ls.all)/n, len(ls.all), quantile(ls.all, 0.50), quantile(ls.all, 0.99))
	}
	rep.add("select_rps", rps, "1/s", fmt.Sprintf("answered per second of wall time, %s, n=%d%s", rpsNote, len(ls.done), ls.backlog))
	rep.add("select_p50_ms", quantile(ls.lat, 0.50), "ms", latNote)
	rep.add("select_p99_ms", quantile(ls.lat, 0.99), "ms", fmt.Sprintf("%d beyond; %s", beyond(n, 0.99), latNote))
	rep.add("probes_per_query", float64(ls.searches)/answered, "count", "backend searches issued per answered request")
	rep.add("cor_a", ls.corA/answered, "ratio", "mean absolute correctness against the golden top-k")
	rep.add("reached_frac", ls.reached/answered, "ratio", "answers that met the certainty threshold")
}

// perLayer reports the layer metrics the load phase gives: counters of
// the server and the process, and set-up's parts.
func (ls *loadStats) perLayer(rep *report, fix *fixture) {
	answered := ls.answered()
	rep.add("server.coalesced_frac", ls.coalesced/answered, "ratio", "answers that rode another request's run")
	rep.add("server.shed_frac", ls.shed/answered, "ratio", "answers below tier full")
	rep.add("server.peak_inflight", float64(ls.peak), "count", "")
	rep.add("facade.reload_ms", median(ls.reloadMs), "ms", fmt.Sprintf("ReloadModel under load, n=%d; 0 on a frozen workload", len(ls.reloadMs)))
	rep.add("probeexec.useful_ratio", ls.applied/float64(ls.searches), "ratio", "probes applied to an answer / backend searches issued")
	rep.add("process.cpu_ms_per_req", ms(ls.after.cpu-ls.before.cpu)/answered, "ms", "getrusage user+system, load generator included")
	rep.add("process.allocs_per_req", float64(ls.after.mallocs-ls.before.mallocs)/answered, "count", "heap objects, load generator included")
	rep.add("process.gc_pause_ms", ms(ls.after.gcPause-ls.before.gcPause), "ms", "stop-the-world total over the load phase")
	rep.add("process.mutex_wait_ms", (ls.after.mutexWait-ls.before.mutexWait)*1000, "ms", "total over the load phase")
	rep.add("loadgen.sched_lag_p99_ms", quantile(ls.lag, 0.99), "ms", "open loop: send time past due time; validity only"+ls.backlog)
	rep.add("corpus.build_s", fix.corpusBuild, "s", "")
	rep.add("summary.build_s", fix.summaryBuild, "s", "")
	rep.add("core.train_s", fix.train, "s", "")
}

// traceLayers replays the first n requests at every depth, checks each
// depth's answers, reports the traced layer metrics and writes the
// spans out.
func traceLayers(rep *report, fix *fixture, w workload, rl *requestList, tr *truth, n, loads int, out io.Writer) error {
	traced, err := runTrace(fix, w, rl, n, loads)
	if err != nil {
		return err
	}
	rep.res.Attempted += n * len(traced.answers)
	if w.frozen() {
		for replay, answers := range traced.answers {
			for i, a := range answers {
				if want := tr.direct[rl.order[i]]; !a.matches(want) {
					if rep.res.Failed++; rep.res.Failed <= 5 {
						fmt.Fprintf(os.Stderr, "benchmark: %s %s replay request %d: answer %v differs from the direct engine's %v\n", w.name, replay, i, a, want)
					}
				}
			}
		}
	}
	traced.report(rep)
	path := filepath.Join("out", "trace-"+w.name+".jsonl")
	if err := traced.rec.write(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(traced.rec.spans), path)
	return nil
}

// runWorkload runs w once: the load phase, and with opt.trace the
// traced replays. It reports the end-to-end metrics, or with opt.trace
// the per-layer ones.
func runWorkload(su *setupSummary, w workload, opt options, sz sizing, out io.Writer) (*result, error) {
	fix := su.fix
	seconds := opt.seconds
	if opt.trace {
		// A traced run splits its budget between the load phase, which
		// gives the process and server counters, and the replays.
		seconds /= 2
	}
	rl, err := buildRequests(fix.gen, w, w.requestCount(seconds, sz), opt.seed)
	if err != nil {
		return nil, err
	}
	tr, err := buildTruth(fix, w, rl)
	if err != nil {
		return nil, err
	}
	ls, err := measureLoad(fix, w, rl, tr, sz, out)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.res.Attempted, rep.res.Failed = ls.attempted, ls.failed
	if opt.trace {
		ls.perLayer(rep, fix)
		n := int(float64(w.tracePerSecond) * opt.seconds)
		if n < sz.minTrace {
			n = sz.minTrace
		}
		if n > len(rl.order) {
			n = len(rl.order)
		}
		if err := traceLayers(rep, fix, w, rl, tr, n, sz.modelLoads, out); err != nil {
			return nil, err
		}
	} else {
		ls.endToEnd(rep, su, w)
	}
	rep.res.Correct = rep.res.Failed == 0
	rep.print(out)
	return &rep.res, nil
}
