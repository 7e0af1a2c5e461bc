package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/queries"
)

// tinySizing runs every workload in a fraction of a second: the health
// testbed at the smoke scale and a few dozen requests.
var tinySizing = sizing{scale: 0.006, trainN: 40, setups: 1, minRequests: 8, modelLoads: 1, minTrace: 3}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runTiny runs all workloads at tiny scale and returns each one's
// result line.
func runTiny(t *testing.T, trace bool) map[string]result {
	t.Helper()
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var out bytes.Buffer
	if err := run(&out, names, options{seed: 1, seconds: 0.05, trace: trace}, tinySizing, ""); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var results []result
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("result line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if len(results) != len(names) {
		t.Fatalf("%d result lines for %d workloads", len(results), len(names))
	}
	byName := make(map[string]result)
	for i, name := range names {
		byName[name] = results[i]
	}
	return byName
}

// checkDeclared asserts that a result carries exactly the declared
// metrics, with the declared units and well-formed names.
func checkDeclared(t *testing.T, workload string, r result, declared []metricSpec) {
	t.Helper()
	if !nameRE.MatchString(workload) {
		t.Errorf("workload name %q", workload)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	for _, m := range declared {
		got, ok := r.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("metric name %q", m.Name)
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", workload, m.Name, got.Value)
		}
	}
	if len(r.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(r.Metrics), len(declared))
	}
}

func TestEndToEndMetricsMatchDeclaration(t *testing.T) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for name, r := range runTiny(t, false) {
		checkDeclared(t, name, r, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if r.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
			}
		}
	}
}

func TestPerLayerMetricsMatchDeclaration(t *testing.T) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range runTiny(t, true) {
		checkDeclared(t, name, r, spec.PerLayer)
		if _, err := os.Stat(filepath.Join("out", "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTraceCoverage replays enough requests for the depths to
// reconcile: the layers named by the trace must account for the client
// round trip, and every depth must give the same answers.
func TestTraceCoverage(t *testing.T) {
	// A full run replays 400 requests and lands in [0.9, 1.1]; the 80
	// here take a tenth of a second per depth, short enough for one
	// burst of host noise to cover a whole depth, hence the wider band.
	n, lo, hi := 80, 0.8, 1.3
	if raceEnabled {
		// The detector makes a request cost tens of milliseconds.
		n, lo, hi = 10, 0.6, 1.6
	}
	fix, err := buildFixture(t.TempDir(), tinySizing.scale, tinySizing.trainN)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	rl, err := buildRequests(fix.gen, w, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := runTrace(fix, w, rl, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	tr.report(rep)
	if c := rep.res.Metrics["trace.coverage"].Value; c < lo || c > hi {
		t.Errorf("trace.coverage = %.3f, want within [%.1f, %.1f]", c, lo, hi)
	}
	for replay, answers := range tr.answers {
		for i, a := range answers {
			if !a.matches(tr.answers[replayEngine][i]) {
				t.Errorf("%s replay, request %d: %v, the written-out loop gave %v", replay, i, a, tr.answers[replayEngine][i])
			}
		}
	}
}

func TestSeedReproducesRequests(t *testing.T) {
	gen, err := queries.NewGenerator(corpus.HealthWorld(), queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, err := buildRequests(gen, w, 400, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildRequests(gen, w, 400, 7)
		c, _ := buildRequests(gen, w, 400, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", w.name)
		}
		if reflect.DeepEqual(a.order, c.order) {
			t.Errorf("%s: seeds 7 and 8 gave the same request order", w.name)
		}
		if !reflect.DeepEqual(a.pool, c.pool) {
			t.Errorf("%s: the query population depends on the seed", w.name)
		}
		if len(a.order) != 400 {
			t.Errorf("%s: %d requests, want 400", w.name, len(a.order))
		}
		if w.open {
			if len(a.due) != 400 || reflect.DeepEqual(a.due, c.due) {
				t.Errorf("%s: arrival schedule missing or independent of the seed", w.name)
			}
			if got, want := a.due[399].Seconds(), 400/w.rate; math.Abs(got-want) > 1e-3 {
				t.Errorf("%s: 400 arrivals at %g req/s end at %.3fs, want %.3fs", w.name, w.rate, got, want)
			}
		}
	}
}

// TestOpenLoopPasses checks that an open loop's list is whole passes
// over one trace: every pass sends the same queries with the same gaps.
func TestOpenLoopPasses(t *testing.T) {
	gen, err := queries.NewGenerator(corpus.HealthWorld(), queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "open", open: true, rate: 100, zipfS: 1.1, repeat: 4, cycle: 120}
	if got := w.requestCount(3.5, sizing{}); got != 360 {
		t.Errorf("requestCount = %d, want 3 passes of 120", got)
	}
	rl, err := buildRequests(gen, w, 360, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rl.cycle != 120 || len(rl.order) != 360 || len(rl.due) != 360 || len(rl.pool) != 30 {
		t.Fatalf("cycle %d, %d requests, %d due times, %d queries", rl.cycle, len(rl.order), len(rl.due), len(rl.pool))
	}
	for i := 120; i < 360; i++ {
		if rl.order[i] != rl.order[i-120] {
			t.Fatalf("request %d differs from request %d of the previous pass", i, i-120)
		}
		if got, want := (rl.due[i] - rl.due[i-120]).Seconds(), 120/w.rate; math.Abs(got-want) > 1e-3 {
			t.Fatalf("request %d is due %.4fs after its previous pass, want %.4fs", i, got, want)
		}
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(500, 2000, 1.1)
	total := 0
	for i, c := range counts {
		total += c
		if i > 0 && c > counts[i-1] {
			t.Fatalf("rank %d has %d requests, rank %d has %d", i, c, i-1, counts[i-1])
		}
	}
	if total != 2000 {
		t.Errorf("counts sum to %d, want 2000", total)
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(v, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(v, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", got)
	}
	// A stalled pass does not move an entry; an unanswered entry is left out.
	if got := bestOfPasses([][]float64{{90, 8, 9}, {}, {5}}); !reflect.DeepEqual(got, []float64{5, 8}) {
		t.Errorf("bestOfPasses = %v, want [5 8]", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50 []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50 {
			rec := runRecord{Workload: spec.Workloads[0].Name, Seed: int64(i), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"select_p50_ms": {Value: v, Unit: "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", []float64{2.0, 2.02, 1.98, 2.01})
	for _, tc := range []struct {
		name      string
		change    []float64
		verdict   string
		regressed bool
	}{
		{"same", []float64{2.01, 2.0, 1.99, 2.02}, "ok", false},
		{"slower", []float64{3.0, 3.02, 2.98, 3.01}, "regressed", true},
		{"noisy", []float64{1.0, 2.0, 2.1, 3.0}, "unresolved", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, benchmarkJSON, parent, write(tc.name+".jsonl", tc.change))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, spec.Workloads[0].Name) && strings.Contains(line, "select_p50_ms") {
				row = line
			}
		}
		if regressed != tc.regressed || !strings.Contains(row, tc.verdict) {
			t.Errorf("%s: regressed=%v, row %q, want verdict %s", tc.name, regressed, row, tc.verdict)
		}
	}
}

// TestEnginesShareNoPolicy runs two written-out selection loops at
// once over one model version. Each allocates its core.Greedy per
// request; under -race a policy (or any other scratch) shared between
// them would be reported, and their answers would diverge from the
// sequential ones.
func TestEnginesShareNoPolicy(t *testing.T) {
	fix, err := buildFixture(t.TempDir(), tinySizing.scale, tinySizing.trainN)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[0]
	rl, err := buildRequests(fix.gen, w, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.LoadModel(fix.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	ver := core.NewModelVersion(model, "load", time.Now())
	answers := func() ([]answer, error) {
		eng, err := newEngine(fix, w, ver, nil)
		if err != nil {
			return nil, err
		}
		out := make([]answer, len(rl.order))
		for i, q := range rl.order {
			a, err := eng.selectOne(context.Background(), rl.pool[q].String())
			if err != nil {
				return nil, err
			}
			out[i] = a
		}
		return out, nil
	}
	want, err := answers()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := answers()
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("concurrent engine %d answered differently from the sequential one", g)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
