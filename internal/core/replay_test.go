package core_test

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

var replay = flag.Bool("replay", false, "replay the slow-probe population on the virtual clock (TestWideFromReplay)")

// TestWideFromReplay replays the benchmark's slow-probe population on the
// virtual clock (core.ReplayVirtual) and prints, for the loop without a
// lookahead, with today's narrow one only and with wide starts from a
// few step counts on, the virtual latency's quartiles and tail, the
// searches sent and the starts the loop never picked. The population is
// the benchmark's: the health testbed at scale 0.1 (seed 2004), a model
// trained on 300 + 300 queries, and 1 000 + 1 000 distinct queries in the
// benchmark's order, at k = 3, t = 0.9, a search taking 10 ms and a rank
// that sweeps taking rankCost. It takes about a minute on two cores, so
// it runs only with -replay:
//
//	go test ./internal/core -run TestWideFromReplay -replay -v
//
// Every run must fold the trajectory the loop folds without a lookahead.
func TestWideFromReplay(t *testing.T) {
	if !*replay {
		t.Skip("run with -replay")
	}
	const (
		latency  = 10 * time.Millisecond
		rankCost = 110 * time.Microsecond
	)
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(0.1), 2004)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := summary.BuildExact(tb)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	train, err := gen.Pool(stats.NewRNG(2004).Fork(1), 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	rel := estimate.NewDocFrequency()
	model, err := core.Train(tb, sums, rel, train, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2004)
	pool, err := gen.Pool(rng.Fork(1), 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng.Fork(7).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	truth := make([][]float64, len(pool))
	for qi, q := range pool {
		truth[qi] = make([]float64, tb.Len())
		for i := range truth[qi] {
			if truth[qi][i], err = rel.Probe(tb.DB(i), q.String()); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sequential []core.Outcome
	for _, c := range []struct {
		name   string
		think  bool
		wideAt int
	}{
		{"no lookahead", false, 0},
		{"narrow only", true, math.MaxInt},
		{"wide from step 8", true, 7},
		{"wide from step 7", true, 6},
		{"wide from step 6", true, 5},
		{"wide from step 5", true, 4},
	} {
		// A version of its own, so that no run reads decisions an earlier
		// one put in the memo.
		v := core.NewModelVersion(model, "replay", time.Time{})
		var elapsed []time.Duration
		searches, orphans, probes, wide := 0, 0, 0, 0
		for qi, q := range pool {
			s := v.NewSelection(q.String(), q.NumTerms(), core.Absolute, 3)
			r, err := core.ReplayVirtual(s, func(i int) float64 { return truth[qi][i] }, 0.9, c.think, c.wideAt, latency, rankCost)
			if err != nil {
				t.Fatal(err)
			}
			wide += s.Ahead().Wide
			s.Release()
			if !c.think {
				sequential = append(sequential, r.Out)
			} else if fmt.Sprint(r.Out) != fmt.Sprint(sequential[qi]) {
				t.Fatalf("%s, %q: outcome %+v, without a lookahead %+v", c.name, q, r.Out, sequential[qi])
			}
			elapsed = append(elapsed, r.Elapsed)
			searches += r.Searches
			orphans += r.Orphans
			probes += len(r.Out.Steps)
		}
		slices.Sort(elapsed)
		at := func(p float64) float64 { return float64(elapsed[int(p*float64(len(elapsed)-1))]) / 1e6 }
		t.Logf("%-17s p50 %6.1f  p90 %6.1f  p99 %6.1f ms  searches/query %.4f (%+.2f %%)  unpicked %4d  wide starts %4d",
			c.name, at(0.5), at(0.9), at(0.99), float64(searches)/float64(len(pool)), 100*(float64(searches)/float64(probes)-1), orphans, wide)
	}
}
