// Package eval implements the paper's evaluation methodology (Section
// 6.1): build a golden standard by issuing every test query to every
// database, then score any database-selection method with the absolute
// and partial correctness metrics (Eq. 3 and 4).
package eval

import (
	"fmt"
	"runtime"
	"sync"

	"metaprobe/internal/core"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
)

// Golden is the ground truth for one query: the exact relevancy of
// every database, obtained by live-querying all of them.
type Golden struct {
	// Query is the test query.
	Query queries.Query
	// Actual holds r(dbᵢ, q) in testbed order.
	Actual []float64
}

// TopK returns the true top-k set (ties to the lower index), sorted by
// index — the DB_topk the paper checks answers against.
func (g *Golden) TopK(k int) []int {
	return core.TopKByScore(g.Actual, k)
}

// BuildGolden issues every query to every database and records the
// exact relevancies. Queries are processed concurrently (the testbed
// is in-process, so this is CPU-bound).
func BuildGolden(tb *hidden.Testbed, rel estimate.Relevancy, qs []queries.Query) ([]Golden, error) {
	return Parallel(len(qs), func(qi int) (Golden, error) {
		q := qs[qi]
		actual := make([]float64, tb.Len())
		for i := 0; i < tb.Len(); i++ {
			v, err := rel.Probe(tb.DB(i), q.String())
			if err != nil {
				return Golden{}, fmt.Errorf("eval: golden standard for %q: %w", q, err)
			}
			actual[i] = v
		}
		return Golden{Query: q, Actual: actual}, nil
	})
}

// CorA is the absolute correctness (Eq. 3): 1 when the selected set
// equals the true top-k, else 0. Both sets must be sorted by index.
func CorA(selected, topk []int) float64 {
	if len(selected) != len(topk) {
		return 0
	}
	for i := range selected {
		if selected[i] != topk[i] {
			return 0
		}
	}
	return 1
}

// CorP is the partial correctness (Eq. 4): |selected ∩ topk| / k.
func CorP(selected, topk []int) float64 {
	if len(topk) == 0 {
		return 0
	}
	set := make(map[int]struct{}, len(topk))
	for _, i := range topk {
		set[i] = struct{}{}
	}
	overlap := 0
	for _, i := range selected {
		if _, ok := set[i]; ok {
			overlap++
		}
	}
	return float64(overlap) / float64(len(topk))
}

// MethodScore aggregates a selection method's performance over a query
// set — the Avg(Cor_a) / Avg(Cor_p) columns of Figure 15.
type MethodScore struct {
	// AvgCorA is the average absolute correctness.
	AvgCorA float64
	// AvgCorP is the average partial correctness.
	AvgCorP float64
	// AvgProbes is the average number of successful probes per query
	// (0 for non-probing methods).
	AvgProbes float64
}

// Selector is any database-selection method: given a query, produce a
// k-set (sorted by index) and the number of probes it spent.
type Selector func(q queries.Query) (set []int, probes int, err error)

// Score runs a selector over the golden standard and averages the
// correctness metrics.
func Score(golden []Golden, k int, sel Selector) (MethodScore, error) {
	if len(golden) == 0 {
		return MethodScore{}, fmt.Errorf("eval: empty golden standard")
	}
	type res struct {
		corA, corP float64
		probes     int
	}
	results, err := Parallel(len(golden), func(i int) (res, error) {
		g := golden[i]
		set, probes, err := sel(g.Query)
		if err != nil {
			return res{}, err
		}
		topk := g.TopK(k)
		return res{corA: CorA(set, topk), corP: CorP(set, topk), probes: probes}, nil
	})
	if err != nil {
		return MethodScore{}, err
	}
	var score MethodScore
	for _, r := range results {
		score.AvgCorA += r.corA
		score.AvgCorP += r.corP
		score.AvgProbes += float64(r.probes)
	}
	n := float64(len(golden))
	score.AvgCorA /= n
	score.AvgCorP /= n
	score.AvgProbes /= n
	return score, nil
}

// Parallel runs f(i) for i in [0, n) on up to GOMAXPROCS workers and
// returns the results in index order, or the error of the lowest index
// that failed. Every i runs either way. A caller that folds the results
// in index order adds its floats in the same order at any worker count.
func Parallel[T any](n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
