package probeexec

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/leakcheck"
	"metaprobe/internal/obs"
)

// The golden trajectories pin Figure 11's loop across refactors: the
// fixture was recorded with core.APro before the sequential and the
// executor loops were merged, and every way of running the loop — the
// inline prober, the executor's prober, and the same prober with a
// lookahead offered at every step — must reproduce it bit for bit
// (probe order, each step's usefulness and certainty-after, the final
// set). The lookahead only starts probes early; it does not change
// which probe folds next, so all of them share one trajectory.
//
// Regenerate (only when the algorithm is meant to change) with
//
//	go test ./internal/probeexec -run TestGoldenTrajectories -update-golden

const goldenPath = "../core/testdata/apro_golden.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from core.APro")

// goldenCase is one RD set with the relevancies its probes observe. RDs
// are stored as the [value, weight] integer pairs handed to core.NewRD,
// so the fixture is self-contained and exact in decimal.
type goldenCase struct {
	Name  string      `json:"name"`
	RDs   [][][2]int  `json:"rds"`
	Truth []float64   `json:"truth"`
	Runs  []goldenRun `json:"runs"`
}

// goldenRun is one recorded APro trajectory; floats are hex strings.
type goldenRun struct {
	Metric    string       `json:"m"`
	K         int          `json:"k"`
	T         float64      `json:"t"`
	Initial   string       `json:"e0"`
	Steps     []goldenStep `json:"steps"`
	Set       []int        `json:"set"`
	Certainty string       `json:"e"`
	Reached   bool         `json:"ok"`
}

type goldenStep struct {
	DB         int    `json:"db"`
	Usefulness string `json:"u"`
	After      string `json:"e"`
}

func (c goldenCase) rds() []*core.RD {
	rds := make([]*core.RD, len(c.RDs))
	for i, pairs := range c.RDs {
		vals := make([]float64, len(pairs))
		weights := make([]float64, len(pairs))
		for j, p := range pairs {
			vals[j], weights[j] = float64(p[0]), float64(p[1])
		}
		rds[i] = core.MustRD(vals, weights)
	}
	return rds
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenInputs builds the fixture's inputs: the paper's two worked
// examples (k = 1) and 200 seeded random RD sets of 4–7 databases on a
// coarse value grid, so cross-database ties occur.
func goldenInputs() []goldenCase {
	cases := []goldenCase{
		{Name: "paper-example-4", RDs: [][][2]int{{{50, 4}, {100, 5}, {150, 1}}, {{65, 1}, {130, 9}}}, Truth: []float64{100, 130}},
		{Name: "paper-example-6", RDs: [][][2]int{{{50, 3}, {100, 4}, {150, 3}}, {{65, 4}, {130, 6}}}, Truth: []float64{150, 65}},
	}
	rng := rand.New(rand.NewSource(2004))
	for c := 0; c < 200; c++ {
		gc := goldenCase{Name: fmt.Sprintf("random-%03d", c)}
		n := 4 + rng.Intn(4)
		for i := 0; i < n; i++ {
			seen := map[int]bool{}
			var pairs [][2]int
			for want := 1 + rng.Intn(5); len(pairs) < want; {
				if v := 5 * rng.Intn(20); !seen[v] {
					seen[v] = true
					pairs = append(pairs, [2]int{v, 1 + rng.Intn(9)})
				}
			}
			gc.RDs = append(gc.RDs, pairs)
			gc.Truth = append(gc.Truth, float64(pairs[rng.Intn(len(pairs))][0]))
		}
		cases = append(cases, gc)
	}
	return cases
}

func recordGolden(t *testing.T) {
	cases := goldenInputs()
	for ci := range cases {
		c := &cases[ci]
		for _, metric := range []core.Metric{core.Absolute, core.Partial} {
			for k := 1; k <= 3 && k < len(c.RDs); k++ {
				for _, thr := range []float64{0.5, 0.8, 0.95} {
					sel := core.NewSelectionFromRDs(c.rds(), metric, k)
					out, err := core.APro(sel, func(i int) (float64, error) { return c.Truth[i], nil }, &core.Greedy{}, thr, -1)
					if err != nil {
						t.Fatal(err)
					}
					run := goldenRun{
						Metric: metric.String(), K: k, T: thr,
						Initial: hexFloat(out.Initial), Steps: []goldenStep{},
						Set: out.Set, Certainty: hexFloat(out.Certainty), Reached: out.Reached,
					}
					for _, s := range out.Steps {
						run.Steps = append(run.Steps, goldenStep{DB: s.DB, Usefulness: hexFloat(s.Usefulness), After: hexFloat(s.CertaintyAfter)})
					}
					c.Runs = append(c.Runs, run)
				}
			}
		}
	}
	lines := make([]string, len(cases))
	for i, c := range cases {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	if err := os.WriteFile(goldenPath, []byte("[\n"+strings.Join(lines, ",\n")+"\n]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenTrajectories(t *testing.T) {
	leakcheck.Check(t)
	if *updateGolden {
		recordGolden(t)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	// The compiler may fuse x*y+z on some architectures, so the recorded
	// bits are exact only where they were recorded.
	same := func(got float64, want string) bool {
		w, err := strconv.ParseFloat(want, 64)
		if err != nil {
			t.Fatalf("bad hex float %q: %v", want, err)
		}
		if runtime.GOARCH == "amd64" {
			return got == w
		}
		return math.Abs(got-w) <= 1e-9
	}
	// A thinking leg's backends read an hour away and really take a
	// moment, so every step that may think does and most thoughts finish.
	type leg struct {
		e              *Executor
		thinks         bool
		started, steps atomic.Int64
		ahead          core.AheadWork
	}
	legs := map[string]*leg{
		"executor":          {e: NewExecutor(Config{})},
		"thinking executor": {e: NewExecutor(Config{Metrics: obs.NewRegistry()}), thinks: true},
	}
	runs := 0
	for _, c := range cases {
		rds := c.rds()
		for _, want := range c.Runs {
			runs++
			metric := core.Absolute
			if want.Metric == core.Partial.String() {
				metric = core.Partial
			}
			check := func(via string, out core.Outcome, err error) {
				t.Helper()
				id := fmt.Sprintf("%s %s k=%d t=%v via %s", c.Name, want.Metric, want.K, want.T, via)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if out.Degraded || out.Reached != want.Reached || fmt.Sprint(out.Set) != fmt.Sprint(want.Set) ||
					!same(out.Initial, want.Initial) || !same(out.Certainty, want.Certainty) {
					t.Fatalf("%s: outcome %+v, want %+v", id, out, want)
				}
				if len(out.Steps) != len(want.Steps) {
					t.Fatalf("%s: %d steps, want %d", id, len(out.Steps), len(want.Steps))
				}
				for si, s := range out.Steps {
					w := want.Steps[si]
					if s.DB != w.DB || s.Err != nil || s.Value != c.Truth[s.DB] ||
						!same(s.Usefulness, w.Usefulness) || !same(s.CertaintyAfter, w.After) {
						t.Fatalf("%s step %d: %+v, want %+v", id, si, s, w)
					}
				}
			}
			out, err := core.APro(core.NewSelectionFromRDs(rds, metric, want.K),
				func(i int) (float64, error) { return c.Truth[i], nil }, &core.Greedy{}, want.T, -1)
			check("inline", out, err)
			for via, l := range legs {
				sel := core.NewSelectionFromRDs(rds, metric, want.K)
				probe := func(_ context.Context, i int) (float64, error) { return c.Truth[i], nil }
				if l.thinks {
					l.e.farAway(len(rds))
					probe = func(_ context.Context, i int) (float64, error) {
						l.started.Add(1)
						// Yielding, not sleeping: a timer would round this up
						// to a millisecond, 12 000 times over.
						for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
							runtime.Gosched()
						}
						return c.Truth[i], nil
					}
				}
				out, err := l.e.APro(context.Background(), sel, dbName, probe, &core.Greedy{}, want.T, -1)
				check(via, out, err)
				ahead := sel.Ahead()
				l.steps.Add(int64(len(out.Steps)))
				l.ahead.Certain += ahead.Certain
				l.ahead.Probable += ahead.Probable
				l.ahead.Disagreed += ahead.Disagreed
				l.ahead.Stops += ahead.Stops
				l.ahead.Abandoned += ahead.Abandoned
			}
		}
	}
	for via, l := range legs {
		if !l.thinks {
			continue
		}
		// A probe that reached its backend and was never folded was
		// cancelled by Drain and counted; one Drain cancelled before it
		// reached its backend cost no search and is not. A successor is
		// started when the search it wastes is expected to be at most
		// maxDissent — outcomes that end the loop counting in full, those
		// that lead elsewhere at missWeight — and a miss costs a search
		// only if no later step picks it. The waste stays under the
		// benchmark's 2 % bound on probes per query.
		orphans := l.started.Load() - l.steps.Load()
		cancelled := l.e.cfg.Metrics.Counter("mp_probes_speculative_cancelled_total", nil).Value()
		t.Logf("%s: %d steps, lookaheads %+v, %d probes reached a backend and were never picked, %d cancelled",
			via, l.steps.Load(), l.ahead, orphans, cancelled)
		if cancelled != orphans || float64(cancelled) > 0.02*float64(l.steps.Load()) {
			t.Errorf("%s: %d probes never picked, mp_probes_speculative_cancelled_total = %d, over %d steps", via, orphans, cancelled, l.steps.Load())
		}
		if l.ahead.Certain == 0 || l.ahead.Probable == 0 {
			t.Errorf("%s: no lookahead ever started a certain or a probable successor: %+v", via, l.ahead)
		}
		if got := l.e.inflight(); got != 0 {
			t.Errorf("%s: %d probes in flight after the last selection", via, got)
		}
	}
	if len(cases) < 202 || runs < 3600 {
		t.Fatalf("fixture holds %d cases / %d runs, want ≥ 202 / ≥ 3600", len(cases), runs)
	}
}
