package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The long golden trajectories pin what apro_golden.json cannot reach:
// its sets have at most seven databases, so no run there gets far enough
// for the lookahead to start wide (wideFrom). These are 20-database RD
// sets — the cold serving shape, most databases impulses at 0 and a few
// wide RDs, and BenchmarkGreedyRankColdTail's eight heavily overlapping
// ones — each run sequentially through APro and on the virtual clock
// through ReplayVirtual with the lookahead thinking at every step. The
// sequential outcome pins the trajectory bit for bit; the virtual run
// adds the clock, the searches sent and what the lookaheads decided, so
// a change to what a wide step starts shows too.
//
// Regenerate (only when the algorithm is meant to change) with
//
//	go test ./internal/core -run TestAProGoldenLong -update-golden-long

const longGoldenPath = "testdata/apro_golden_long.json"

var updateLongGolden = flag.Bool("update-golden-long", false, "rewrite "+longGoldenPath)

// The virtual clock's search latency and rank cost, those of
// TestWideFromReplay.
const (
	longLatency  = 10 * time.Millisecond
	longRankCost = 110 * time.Microsecond
)

// longCase is one 20-database RD set with the relevancies its probes
// observe; RDs are [value, weight] pairs handed to MustRD.
type longCase struct {
	Name  string         `json:"name"`
	RDs   [][][2]float64 `json:"rds"`
	Truth []float64      `json:"truth"`
	Runs  []longRun      `json:"runs"`
}

// longRun is one operating point: the outcome bits of the sequential run
// and of the virtual one.
type longRun struct {
	K       int     `json:"k"`
	T       float64 `json:"t"`
	Seq     string  `json:"seq"`
	Virtual string  `json:"virtual"`
}

func (c longCase) rds() []*RD {
	rds := make([]*RD, len(c.RDs))
	for i, pairs := range c.RDs {
		vals, weights := make([]float64, len(pairs)), make([]float64, len(pairs))
		for j, p := range pairs {
			vals[j], weights[j] = p[0], p[1]
		}
		rds[i] = MustRD(vals, weights)
	}
	return rds
}

// longInputs builds the fixture's inputs: BenchmarkGreedyRankColdTail's
// set, and 24 seeded cold serving shapes of 8–14 live databases with 4–11
// support values on a grid of 10, so live databases overlap and tie.
func longInputs() []longCase {
	const n = 20
	tail := longCase{Name: "cold-tail"}
	for i := 0; i < n; i++ {
		if i%5 < 3 {
			tail.RDs = append(tail.RDs, [][2]float64{{0, 1}})
			tail.Truth = append(tail.Truth, 0)
			continue
		}
		var pairs [][2]float64
		for j := 0; j < 11; j++ {
			pairs = append(pairs, [2]float64{100 + 10*float64(j) + float64(i)/4, 1 + float64(j%3)})
		}
		tail.RDs = append(tail.RDs, pairs)
		tail.Truth = append(tail.Truth, pairs[5][0])
	}
	cases := []longCase{tail}
	rng := rand.New(rand.NewSource(2050))
	for c := 0; c < 24; c++ {
		lc := longCase{Name: fmt.Sprintf("cold-%02d", c)}
		live := map[int]bool{}
		for _, i := range rng.Perm(n)[:8+rng.Intn(7)] {
			live[i] = true
		}
		for i := 0; i < n; i++ {
			if !live[i] {
				lc.RDs = append(lc.RDs, [][2]float64{{0, 1}})
				lc.Truth = append(lc.Truth, 0)
				continue
			}
			base := 10 * float64(rng.Intn(8))
			var pairs [][2]float64
			for j, bins := 0, 4+rng.Intn(8); j < bins; j++ {
				pairs = append(pairs, [2]float64{base + 10*float64(j), float64(1 + rng.Intn(9))})
			}
			lc.RDs = append(lc.RDs, pairs)
			lc.Truth = append(lc.Truth, pairs[rng.Intn(len(pairs))][0])
		}
		cases = append(cases, lc)
	}
	return cases
}

// longPoints are the operating points every case runs at.
var longPoints = []struct {
	k int
	t float64
}{{1, 0.95}, {2, 0.95}, {3, 0.9}, {3, 0.99}}

// runLong runs one case at one point both ways and renders each run.
func runLong(t *testing.T, c longCase, k int, thr float64) (seq, virtual string, wide int) {
	t.Helper()
	rds := c.rds()
	probe := tableProbe(c.Truth)
	s := NewSelectionFromRDs(rds, Absolute, k)
	out, err := APro(s, probe, Greedy{}, thr, -1)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	v := NewSelectionFromRDs(rds, Absolute, k)
	r, err := ReplayVirtual(v, func(i int) float64 { return c.Truth[i] }, thr, true, wideFrom, longLatency, longRankCost)
	if err != nil {
		t.Fatal(err)
	}
	a := v.Ahead()
	v.Release()
	virtual = fmt.Sprintf("elapsed %d searches %d orphans %d early %d ahead %d/%d/%d/%d/%d wide %d | %s",
		r.Elapsed, r.Searches, r.Orphans, r.Early, a.Certain, a.Probable, a.Disagreed, a.Stops, a.Abandoned, a.Wide, outcomeBits(r.Out))
	return outcomeBits(out), virtual, a.Wide
}

func recordLongGolden(t *testing.T) {
	cases := longInputs()
	lines := make([]string, len(cases))
	for ci := range cases {
		c := &cases[ci]
		for _, p := range longPoints {
			seq, virtual, _ := runLong(t, *c, p.k, p.t)
			c.Runs = append(c.Runs, longRun{K: p.k, T: p.t, Seq: seq, Virtual: virtual})
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		lines[ci] = string(b)
	}
	if err := os.WriteFile(longGoldenPath, []byte("[\n"+strings.Join(lines, ",\n")+"\n]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAProGoldenLong replays the long fixture: every sequential
// and virtual run must print as recorded, the virtual one fold the
// sequential trajectory, and the fixture as a whole reach wide steps.
func TestAProGoldenLong(t *testing.T) {
	// The compiler may fuse x*y+z on some architectures, so the recorded
	// bits are exact only where they were recorded.
	if runtime.GOARCH != "amd64" {
		t.Skip("the fixture's bits were recorded on amd64")
	}
	if *updateLongGolden {
		recordLongGolden(t)
	}
	raw, err := os.ReadFile(longGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []longCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != 25 {
		t.Fatalf("long fixture has %d cases, want 25", len(cases))
	}
	wide, long := 0, 0
	for _, c := range cases {
		for _, want := range c.Runs {
			id := fmt.Sprintf("%s k=%d t=%v", c.Name, want.K, want.T)
			seq, virtual, w := runLong(t, c, want.K, want.T)
			if seq != want.Seq {
				t.Fatalf("%s, sequential:\n got %s\nwant %s", id, seq, want.Seq)
			}
			if virtual != want.Virtual {
				t.Fatalf("%s, virtual:\n got %s\nwant %s", id, virtual, want.Virtual)
			}
			if !strings.HasSuffix(virtual, " | "+seq) {
				t.Fatalf("%s: the virtual run folded another trajectory:\n%s\n%s", id, virtual, seq)
			}
			if strings.Count(seq, " | ") > wideFrom {
				long++
			}
			wide += w
		}
	}
	if long == 0 || wide == 0 {
		t.Fatalf("%d runs of more than %d probes and %d wide starts: the fixture pins no wide step", long, wideFrom, wide)
	}
	t.Logf("%d runs of more than %d probes, %d wide starts", long, wideFrom, wide)
}
