package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// Selection parameters shared by every workload: the paper's default
// operating point (top-3 under the absolute metric at 90% certainty).
const (
	selectK         = 3
	selectThreshold = 0.9
)

// poolSeed fixes the query population of every workload (and the open
// loop's trace). The --seed argument orders the requests; it does not
// redraw the population, so the count metrics (probes per query,
// correctness, reached share) of a frozen workload are the same on
// every seed and a tight bound on them means something.
const poolSeed = 2004

// workload is one traffic mix. Request counts scale with --seconds and
// are fixed by count, not by duration, so counts repeat exactly.
type workload struct {
	name string
	// open selects an open loop at rate requests per second (seeded
	// Poisson arrivals, latency timed from each request's due time);
	// otherwise conns clients each send their next request when the
	// previous one is answered.
	open bool
	rate float64
	// perSecond sizes a closed loop's request list: count = perSecond ×
	// seconds, at least minRequests. It is about two thirds of what two
	// cores answer in a second: checking the answers against a second
	// engine takes as long again, and a run has to fit the driver's time
	// limit. An open loop's count is rate × seconds, to the nearest whole
	// pass.
	perSecond int
	// zipfS > 0 draws the requests from count/repeat distinct queries
	// with Zipf(zipfS) popularity; otherwise every query is distinct
	// and sent once.
	zipfS  float64
	repeat int
	// delay is injected before every backend search.
	delay time.Duration
	// conns is the number of keep-alive connections; 0 means
	// min(GOMAXPROCS, 4).
	conns int
	// refine turns on online refinement and reloads the model after
	// every count/reloads completed requests.
	refine  bool
	reloads int
	// cycle is the length in requests of an open loop's trace; a run
	// makes as many end-to-end passes over it as its budget holds.
	cycle int
	// tracePerSecond sizes the sequential traced replay.
	tracePerSecond int
}

// minRequests keeps at least ten samples beyond the 99th percentile.
const minRequests = 1000

var workloads = []workload{
	{name: "cpu-select", perSecond: 300, tracePerSecond: 20},
	{name: "slow-probe", perSecond: 100, delay: 10 * time.Millisecond, conns: 8, tracePerSecond: 2},
	{name: "zipf-open", open: true, rate: 140, zipfS: 1.1, repeat: 2, conns: 16, cycle: 700, tracePerSecond: 20},
	{name: "churn", perSecond: 350, zipfS: 1.1, repeat: 8, refine: true, reloads: 32, tracePerSecond: 20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// frozen reports whether the served model never changes during the
// run, so every answer can be checked against the direct engine.
func (w workload) frozen() bool { return !w.refine }

// requestList is the generated input of one run: the query population,
// the order in which requests draw from it, and for an open loop each
// request's due time as an offset from the start.
type requestList struct {
	pool  []queries.Query
	order []int
	due   []time.Duration
	// An open loop makes len(order)/cycle passes over a fixed cyclic
	// trace of cycle requests, beginning at entry start: request i is
	// entry (start+i) mod cycle of the trace.
	start, cycle int
}

// buildRequests makes the inputs of one run from the seed: the same
// seed gives the same list and schedule.
func buildRequests(gen *queries.Generator, w workload, count int, seed int64) (*requestList, error) {
	// A closed loop's list is one pass over count requests; an open
	// loop's is whole passes over a trace of w.cycle.
	cycle := count
	if w.open && w.cycle > 0 && w.cycle < count {
		cycle = w.cycle
		count -= count % cycle
	}
	distinct := cycle
	if w.zipfS > 0 {
		distinct = cycle / w.repeat
	}
	// A 50/50 mix of 2- and 3-term queries, as in the paper's test sets.
	rng := stats.NewRNG(poolSeed)
	pool, err := gen.Pool(rng.Fork(1), distinct-distinct/2, distinct/2)
	if err != nil {
		return nil, fmt.Errorf("query pool for %s: %w", w.name, err)
	}
	// Pool returns the 2-term queries first; interleave them so Zipf
	// rank is independent of term count. Of the first few shuffles tried,
	// this one puts none of the dozen queries that take over 20 ms among
	// the open loop's twenty hottest: 16 of its 700 requests are heavy,
	// so its 99th percentile is one heavy request served alone. With a
	// 27 ms query at rank 4 (46 heavy requests) it was two heavy requests
	// overlapping on two cores, which spread 10-15% between runs of one
	// binary where the alone ones spread 3-5%.
	rng.Fork(7).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	rl := &requestList{pool: pool}
	if w.zipfS > 0 {
		for q, n := range zipfCounts(distinct, cycle, w.zipfS) {
			for ; n > 0; n-- {
				rl.order = append(rl.order, q)
			}
		}
	} else {
		rl.order = make([]int, cycle)
		for i := range rl.order {
			rl.order[i] = i
		}
	}
	if !w.open {
		stats.NewRNG(seed).Fork(1).Shuffle(len(rl.order), func(i, j int) { rl.order[i], rl.order[j] = rl.order[j], rl.order[i] })
		return rl, nil
	}
	// The open loop makes its passes over one fixed cyclic trace — a
	// fixed order and fixed Poisson gaps — and the seed picks where in
	// the cycle the run starts. Tail latency in an open loop is set by
	// which heavy requests happen to arrive together; redrawing that per
	// seed moves the 99th percentile by a third between seeds at this
	// run length, which no regression bound survives.
	rng.Fork(3).Shuffle(cycle, func(i, j int) { rl.order[i], rl.order[j] = rl.order[j], rl.order[i] })
	gaps := poissonGaps(rng.Fork(4), cycle, w.rate)
	trace := rl.order
	rl.start, rl.cycle = stats.NewRNG(seed).Intn(cycle), cycle
	rl.order = make([]int, count)
	rl.due = make([]time.Duration, count)
	at := time.Duration(0)
	for i := range rl.order {
		e := (rl.start + i) % cycle
		at += gaps[e]
		rl.order[i], rl.due[i] = trace[e], at
	}
	return rl, nil
}

// zipfCounts splits total requests over n queries in proportion to
// 1/rank^s, rounding by largest remainder so the counts sum to total.
// Fixing the multiplicities (and shuffling only the order) keeps the
// popularity skew of a sampled Zipf stream without its sampling noise.
func zipfCounts(n, total int, s float64) []int {
	weights := stats.ZipfWeights(n, s)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, n)
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		rems[i] = rem{i, exact - math.Floor(exact)}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for _, r := range rems[:total-assigned] {
		counts[r.i]++
	}
	return counts
}

// poissonGaps draws n exponential inter-arrival gaps, scaled to sum to
// n/rate seconds: Poisson arrivals given their number, so the trace
// offers exactly the rate.
func poissonGaps(rng *stats.RNG, n int, rate float64) []time.Duration {
	raw := make([]float64, n)
	total := 0.0
	for i := range raw {
		raw[i] = -math.Log(1 - rng.Float64())
		total += raw[i]
	}
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(raw[i] / total * float64(n) / rate * float64(time.Second))
	}
	return gaps
}
