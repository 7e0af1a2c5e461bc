package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/summary"
)

// testMemo is a decision memo outside any ModelVersion, for selections
// built from bare RDs.
type testMemo struct{ slot atomic.Pointer[memoTree] }

func newTestMemo() *testMemo {
	m := &testMemo{}
	startMemo(&m.slot)
	return m
}

// attach points s — unprobed — at its root in the memo's current tree.
func (m *testMemo) attach(s *Selection) *Selection {
	s.attachMemo(m.slot.Load(), 0)
	return s
}

func (m *testMemo) nodes() int { return int(m.slot.Load().nodes.Load()) }

// outcomeBits renders everything a trajectory decides — the set, every
// step's database, value, usefulness and certainty-after, the initial
// and final certainty — with floats in hex, so two outcomes print alike
// only when they agree bit for bit.
func outcomeBits(o Outcome) string {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "set %v e %s e0 %s reached %v degraded %v excluded %v", o.Set, hex(o.Certainty), hex(o.Initial), o.Reached, o.Degraded, o.Excluded)
	for _, s := range o.Steps {
		fmt.Fprintf(&b, " | db %d v %s u %s after %s err %v", s.DB, hex(s.Value), hex(s.Usefulness), hex(s.CertaintyAfter), s.Err != nil)
	}
	return b.String()
}

// detach makes ref a copy of sel — unprobed — that remembers nothing: what
// it decides, the engine computes.
func detach(ref, sel *Selection) {
	ref.Reuse(sel)
	ref.memoRoot, ref.memo = nil, nil
}

func tableProbe(truth []float64) ProbeFunc {
	return func(i int) (float64, error) { return truth[i], nil }
}

// goldenRDSets loads the RD sets and truths of the golden fixture.
func goldenRDSets(t *testing.T) (names []string, rds [][]*RD, truth [][]float64) {
	t.Helper()
	raw, err := os.ReadFile("testdata/apro_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name  string     `json:"name"`
		RDs   [][][2]int `json:"rds"`
		Truth []float64  `json:"truth"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		set := make([]*RD, len(c.RDs))
		for i, pairs := range c.RDs {
			vals, weights := make([]float64, len(pairs)), make([]float64, len(pairs))
			for j, p := range pairs {
				vals[j], weights[j] = float64(p[0]), float64(p[1])
			}
			set[i] = MustRD(vals, weights)
		}
		names, rds, truth = append(names, c.Name), append(rds, set), append(truth, c.Truth)
	}
	return names, rds, truth
}

// TestDecisionMemoDifferentialGolden: on the golden fixture's 202 RD
// sets, at every operating point the fixture records, a run without a
// memo, a run that fills one (all misses) and a run that reads it back
// (all hits) produce the same Outcome bit for bit, and the third computes
// nothing: no miss, no k-set scored, no hypothesis.
func TestDecisionMemoDifferentialGolden(t *testing.T) {
	names, sets, truths := goldenRDSets(t)
	if len(sets) != 202 {
		t.Fatalf("golden fixture has %d cases, want 202", len(sets))
	}
	runs := 0
	for ci, rds := range sets {
		probe := tableProbe(truths[ci])
		for _, metric := range []Metric{Absolute, Partial} {
			for k := 1; k <= 3 && k < len(rds); k++ {
				memo := newTestMemo() // one tree per (case, metric, k): the three thresholds share it
				for _, thr := range []float64{0.5, 0.8, 0.95} {
					id := fmt.Sprintf("%s %v k=%d t=%v", names[ci], metric, k, thr)
					want, err := APro(NewSelectionFromRDs(rds, metric, k), probe, Greedy{}, thr, -1)
					if err != nil {
						t.Fatal(err)
					}
					fill := memo.attach(NewSelectionFromRDs(rds, metric, k))
					got, err := APro(fill, probe, Greedy{}, thr, -1)
					if err != nil || outcomeBits(got) != outcomeBits(want) {
						t.Fatalf("%s, filling the memo:\n got %s\nwant %s (%v)", id, outcomeBits(got), outcomeBits(want), err)
					}
					read := memo.attach(NewSelectionFromRDs(rds, metric, k))
					got, err = APro(read, probe, Greedy{}, thr, -1)
					if err != nil || outcomeBits(got) != outcomeBits(want) {
						t.Fatalf("%s, reading the memo:\n got %s\nwant %s (%v)", id, outcomeBits(got), outcomeBits(want), err)
					}
					w := read.Work()
					if w.MemoMisses != 0 || w.Sets != 0 || w.Hypotheses != 0 || w.Swept != 0 || w.MemoHits == 0 {
						t.Fatalf("%s: the second pass still worked: %+v", id, w)
					}
					if fw := fill.Work(); fw.MemoHits+fw.MemoMisses != w.MemoHits {
						t.Fatalf("%s: filled %d+%d decisions, read back %d", id, fw.MemoHits, fw.MemoMisses, w.MemoHits)
					}
					fill.Release()
					read.Release()
					runs++
				}
			}
		}
	}
	t.Logf("%d operating points, each run three ways", runs)
}

// memoFixture is a trained six-database model behind a version, with the
// test queries' true relevancies.
type memoFixture struct {
	model   *Model
	tb      *hidden.Testbed
	queries []queries.Query
	truth   map[string][]float64
}

func newMemoFixture(t *testing.T) *memoFixture {
	t.Helper()
	model, tb, test := buildTrainedModel(t)
	f := &memoFixture{model: model, tb: tb, truth: make(map[string][]float64)}
	rel := estimate.NewDocFrequency()
	for _, q := range test {
		qs := q.String()
		if _, dup := f.truth[qs]; dup {
			continue
		}
		truth := make([]float64, tb.Len())
		for i := range truth {
			v, err := rel.Probe(tb.DB(i), qs)
			if err != nil {
				t.Fatal(err)
			}
			truth[i] = v
		}
		f.truth[qs] = truth
		f.queries = append(f.queries, q)
	}
	return f
}

// direct is the memo-less engine's answer for q: a selection derived
// from the model's EDs (no version, no table, no memo).
func (f *memoFixture) direct(t *testing.T, m *Model, q queries.Query, k int, thr float64) Outcome {
	t.Helper()
	out, err := APro(m.newSelection(q.String(), q.NumTerms(), Absolute, k), tableProbe(f.truth[q.String()]), Greedy{}, thr, -1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// through runs q on a selection filled from v and returns what it cost.
func (f *memoFixture) through(t *testing.T, v *ModelVersion, sel *Selection, q queries.Query, k int, thr float64) (Outcome, RankWork) {
	t.Helper()
	v.FillSelection(sel, q.String(), q.NumTerms(), Absolute, k)
	out, err := APro(sel, tableProbe(f.truth[q.String()]), Greedy{}, thr, -1)
	if err != nil {
		t.Fatal(err)
	}
	return out, sel.Work()
}

// TestDecisionMemoDifferentialTestbed is the same three-way differential
// on selections filled through a ModelVersion from trained EDs: distinct
// testbed queries at k = 2 and k = 3, first sight then repeat.
func TestDecisionMemoDifferentialTestbed(t *testing.T) {
	f := newMemoFixture(t)
	ver := NewModelVersion(f.model, "train", time.Now())
	sel := &Selection{}
	defer sel.Release()
	compared, probing := 0, 0
	for _, k := range []int{2, 3} {
		for _, q := range f.queries {
			want := outcomeBits(f.direct(t, f.model, q, k, 0.9))
			first, fw := f.through(t, ver, sel, q, k, 0.9)
			if outcomeBits(first) != want {
				t.Fatalf("%s k=%d at first sight:\n got %s\nwant %s", q, k, outcomeBits(first), want)
			}
			if fw.MemoHits != 0 {
				t.Fatalf("%s k=%d: %d hits at first sight of a distinct query", q, k, fw.MemoHits)
			}
			again, aw := f.through(t, ver, sel, q, k, 0.9)
			if outcomeBits(again) != want {
				t.Fatalf("%s k=%d repeated:\n got %s\nwant %s", q, k, outcomeBits(again), want)
			}
			if aw.MemoMisses != 0 || aw.Sets != 0 || aw.Hypotheses != 0 || aw.MemoHits != fw.MemoMisses {
				t.Fatalf("%s k=%d repeated: work %+v after a first sight of %+v", q, k, aw, fw)
			}
			compared++
			if len(first.Steps) > 0 {
				probing++
			}
		}
	}
	if compared < 300 || probing < 100 {
		t.Fatalf("%d selections compared, %d of them probing: too few to mean anything", compared, probing)
	}
	nodes, on := ver.Memo()
	t.Logf("%d selections compared, %d probing; the memo holds %d nodes", compared, probing, nodes)
	if !on || nodes < compared {
		t.Errorf("memo on=%v with %d nodes after %d distinct (query, k) roots", on, nodes, compared)
	}
}

// TestDecisionMemoThresholdsShareTree: the threshold is not part of a
// state, so a run at t = 0.5 and a later one at t = 0.95 walk the same
// path: the second reads every decision the first made and computes only
// from where the first stopped.
func TestDecisionMemoThresholdsShareTree(t *testing.T) {
	f := newMemoFixture(t)
	sel := &Selection{}
	defer sel.Release()
	for _, q := range f.queries {
		ver := NewModelVersion(f.model, "train", time.Now())
		low, lw := f.through(t, ver, sel, q, 2, 0.5)
		high, hw := f.through(t, ver, sel, q, 2, 0.95)
		if len(high.Steps) <= len(low.Steps) || len(low.Steps) == 0 {
			continue
		}
		if want := f.direct(t, f.model, q, 2, 0.95); outcomeBits(high) != outcomeBits(want) {
			t.Fatalf("%s at 0.95 after 0.5:\n got %s\nwant %s", q, outcomeBits(high), outcomeBits(want))
		}
		// The first run decided a best set at each of its states and a head
		// at all but the last; the second needs a head there too, and both
		// decisions at each state beyond.
		beyond := len(high.Steps) - len(low.Steps)
		if hw.MemoHits != lw.MemoMisses || hw.MemoMisses != 2*beyond {
			t.Fatalf("%s: %d steps at 0.5 (%+v), %d at 0.95 (%+v): want %d hits and %d misses",
				q, len(low.Steps), lw, len(high.Steps), hw, lw.MemoMisses, 2*beyond)
		}
		return
	}
	t.Fatal("no test query probes at t = 0.5 and further at t = 0.95")
}

// TestDecisionMemoHammer: eight goroutines answer the same 64 queries
// against one version, over and over, so every node is raced for; every
// answer is the memo-less engine's.
func TestDecisionMemoHammer(t *testing.T) {
	f := newMemoFixture(t)
	ver := NewModelVersion(f.model, "train", time.Now())
	qs := f.queries[:64]
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = outcomeBits(f.direct(t, f.model, q, 2, 0.9))
	}
	var wg sync.WaitGroup
	var hits atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sel := &Selection{}
			defer sel.Release()
			for round := 0; round < 4; round++ {
				for i := range qs {
					i = (i + g*8) % len(qs)
					ver.FillSelection(sel, qs[i].String(), qs[i].NumTerms(), Absolute, 2)
					out, err := APro(sel, tableProbe(f.truth[qs[i].String()]), Greedy{}, 0.9, -1)
					if err != nil || outcomeBits(out) != want[i] {
						t.Errorf("goroutine %d, %s:\n got %s\nwant %s (%v)", g, qs[i], outcomeBits(out), want[i], err)
						return
					}
					hits.Add(int64(sel.Work().MemoHits))
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("2 048 selections over 64 queries never hit the memo")
	}
}

// TestDecisionMemoUnderSwap is TestVersionSwapUnderTraffic's reader with
// the decisions checked: while a writer refines — every step of it across
// an epoch boundary, so rows are republished and the tree replaced under
// the readers — and swaps versions, every decision a reader gets for a
// selection, remembered or not, is the one a detached copy of that very
// selection computes. A decision remembered from rows the selection was
// not built from would differ.
func TestDecisionMemoUnderSwap(t *testing.T) {
	f := newMemoFixture(t)
	var cur atomic.Pointer[ModelVersion]
	cur.Store(NewModelVersion(f.model, "train", time.Now()))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hits atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sel, ref := &Selection{}, &Selection{}
			defer sel.Release()
			defer ref.Release()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := f.queries[(seed*31+n)%32]
				cur.Load().FillSelection(sel, q.String(), q.NumTerms(), Absolute, 2)
				detach(ref, sel)
				got, err := APro(sel, tableProbe(f.truth[q.String()]), Greedy{}, 0.9, -1)
				want, werr := APro(ref, tableProbe(f.truth[q.String()]), Greedy{}, 0.9, -1)
				if err != nil || werr != nil || outcomeBits(got) != outcomeBits(want) {
					t.Errorf("%s under swap:\n got %s\nwant %s (%v, %v)", q, outcomeBits(got), outcomeBits(want), err, werr)
					return
				}
				hits.Add(int64(sel.Work().MemoHits))
			}
		}(r)
	}
	for n := 0; n < 120; n++ {
		// Let the readers fill and reuse the tree before the publication
		// that replaces it.
		time.Sleep(200 * time.Microsecond)
		v := cur.Load()
		dbIdx := n % len(v.Model.DBs)
		// A little over an epoch, so the boundary falls somewhere else in
		// every step and Next finds observations pending; over every
		// database and the readers' queries, so a publication rebuilds many
		// rows — it lasts, and fills begin and end inside it.
		tree := v.memo.Load()
		for i := n; i < n+epochObservations+n%3; i++ {
			q := f.queries[i%32]
			if err := v.ObserveProbe(i%len(v.Model.DBs), q.String(), q.NumTerms(), float64(i%7)); err != nil {
				t.Error(err)
			}
		}
		if now := v.memo.Load(); now == nil || now == tree {
			t.Errorf("step %d: an epoch of observations left the tree in place (nil: %v)", n, now == nil)
		}
		if n%6 == 5 {
			nm, _ := cowRefresh(t, v.Model, dbIdx)
			next := v.Next(nm, "refresh", nm.DBs[dbIdx].Name, time.Now())
			if nodes, on := next.Memo(); !on || nodes != 0 {
				t.Errorf("a successor version starts with memo on=%v, %d nodes", on, nodes)
			}
			cur.Store(next)
		}
	}
	close(stop)
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no reader ever hit a memo: the test raced nothing")
	}
}

// midFillEstimate runs during once, in the middle of a fill: inside the
// estimate of database at, which FillSelection takes after it has read
// the rows of the databases before it.
type midFillEstimate struct {
	estimate.Relevancy
	at     *summary.Summary
	during func()
}

func (e *midFillEstimate) Estimate(s *summary.Summary, q string) float64 {
	if s == e.at && e.during != nil {
		during := e.during
		e.during = nil
		during()
	}
	return e.Relevancy.Estimate(s, q)
}

// TestDecisionMemoFillStraddlesEpoch is the one interleaving the hammer
// above can only hope for, made to happen on one goroutine: a fill reads
// its first database's row, a whole epoch is observed and published, the
// fill reads the rest. Such a selection belongs to neither epoch: it
// attaches to no tree, and what it decides is neither read from nor left
// in the fresh tree, where the next fill of the same query must find
// nothing and decide as its own detached copy does.
func TestDecisionMemoFillStraddlesEpoch(t *testing.T) {
	f := newMemoFixture(t)
	sel, ref := &Selection{}, &Selection{}
	defer sel.Release()
	defer ref.Release()
	straddled := 0
	for _, q := range f.queries {
		if straddled == 8 {
			break
		}
		model, _, _ := buildTrainedModel(t) // private: the epoch changes its EDs
		rel := &midFillEstimate{Relevancy: model.Rel, at: model.Summaries.Summaries[1]}
		model.Rel = rel
		ver := NewModelVersion(model, "train", time.Now())
		before, _ := f.through(t, ver, sel, q, 2, 0.9)
		if len(before.Steps) == 0 {
			continue
		}
		was := tableRows(ver.rdtab)
		tree := ver.memo.Load()
		rel.during = func() {
			for i := 0; i < epochObservations; i++ {
				// Database 0: the row the fill has already read.
				if err := ver.ObserveProbe(0, q.String(), q.NumTerms(), 1e6); err != nil {
					t.Fatal(err)
				}
			}
		}
		ver.FillSelection(sel, q.String(), q.NumTerms(), Absolute, 2)
		if rel.during != nil || ver.memo.Load() == tree || slices.Equal(tableRows(ver.rdtab), was) {
			t.Fatalf("%s: no epoch was published inside the fill", q)
		}
		if sel.memo != nil || sel.memoRoot != nil {
			t.Fatalf("%s: a fill that straddled a publication attached to a tree", q)
		}
		if _, err := APro(sel, tableProbe(f.truth[q.String()]), Greedy{}, 0.9, -1); err != nil {
			t.Fatal(err)
		}
		if w := sel.Work(); w.MemoHits != 0 || w.MemoMisses != 0 {
			t.Fatalf("%s: the straddling selection used a memo: %+v", q, w)
		}
		if nodes, on := ver.Memo(); !on || nodes != 0 {
			t.Fatalf("%s: the fresh tree holds %d nodes (on=%v) before any fill of its epoch", q, nodes, on)
		}
		ver.FillSelection(sel, q.String(), q.NumTerms(), Absolute, 2)
		detach(ref, sel)
		got, err := APro(sel, tableProbe(f.truth[q.String()]), Greedy{}, 0.9, -1)
		want, werr := APro(ref, tableProbe(f.truth[q.String()]), Greedy{}, 0.9, -1)
		if err != nil || werr != nil || outcomeBits(got) != outcomeBits(want) {
			t.Fatalf("%s after the straddled fill:\n got %s\nwant %s (%v, %v)", q, outcomeBits(got), outcomeBits(want), err, werr)
		}
		if w := sel.Work(); w.MemoHits != 0 || w.MemoMisses == 0 {
			t.Fatalf("%s: the first fill of the new epoch read a memo: %+v", q, w)
		}
		straddled++
	}
	if straddled == 0 {
		t.Fatal("no query probed: nothing straddled")
	}
}

// TestDecisionMemoRefinementCutOff: observations that change a query's
// first probe reach neither fills nor the memo while their epoch lasts —
// the query is answered as before, from memory — and both when it ends:
// the tree starts over, and the next fill decides as the memo-less engine
// does over the refined EDs. A selection attached before the publication
// keeps the nodes of the tree it was filled under.
func TestDecisionMemoRefinementCutOff(t *testing.T) {
	f := newMemoFixture(t)
	sel := &Selection{}
	defer sel.Release()
	for _, q := range f.queries[:40] {
		for db := 0; db < f.tb.Len(); db++ {
			for _, actual := range []float64{0, 1e6} {
				// A private model per attempt: ObserveProbe changes its EDs.
				model, _, _ := buildTrainedModel(t)
				ver := NewModelVersion(model, "train", time.Now())
				before, bw := f.through(t, ver, sel, q, 2, 0.9)
				if len(before.Steps) == 0 {
					break
				}
				nodes, on := ver.Memo()
				if !on || nodes == 0 || bw.MemoMisses == 0 {
					t.Fatalf("before refinement: memo on=%v, %d nodes, work %+v", on, nodes, bw)
				}
				held := ver.NewSelection(q.String(), q.NumTerms(), Absolute, 2)
				for i := 0; i < epochObservations-1; i++ {
					if err := ver.ObserveProbe(db, q.String(), q.NumTerms(), actual); err != nil {
						t.Fatal(err)
					}
				}
				mid, mw := f.through(t, ver, sel, q, 2, 0.9)
				if outcomeBits(mid) != outcomeBits(before) || mw.MemoMisses != 0 || mw.MemoHits != bw.MemoMisses {
					t.Fatalf("%s one observation short of an epoch (work %+v, first sight %+v):\n got %s\n was %s", q, mw, bw, outcomeBits(mid), outcomeBits(before))
				}
				if n, on := ver.Memo(); !on || n != nodes {
					t.Fatalf("one observation short of an epoch: memo on=%v, %d nodes, were %d", on, n, nodes)
				}
				if err := ver.ObserveProbe(db, q.String(), q.NumTerms(), actual); err != nil {
					t.Fatal(err)
				}
				if n, on := ver.Memo(); !on || n != 0 {
					t.Fatalf("after the epoch: memo on=%v, %d nodes", on, n)
				}
				want := f.direct(t, model, q, 2, 0.9)
				if len(want.Steps) == 0 || want.Steps[0].DB == before.Steps[0].DB {
					continue // these observations did not move the head; try others
				}
				after, aw := f.through(t, ver, sel, q, 2, 0.9)
				if outcomeBits(after) != outcomeBits(want) {
					t.Fatalf("%s after refining db %d:\n got %s\nwant %s\n was %s", q, db, outcomeBits(after), outcomeBits(want), outcomeBits(before))
				}
				if aw.MemoHits != 0 || aw.MemoMisses == 0 {
					t.Fatalf("the first fill of the new epoch read a memo: %+v", aw)
				}
				kept, err := APro(held, tableProbe(f.truth[q.String()]), Greedy{}, 0.9, -1)
				if err != nil || outcomeBits(kept) != outcomeBits(before) {
					t.Fatalf("%s, attached before the publication:\n got %s\nwant %s (%v)", q, outcomeBits(kept), outcomeBits(before), err)
				}
				if w := held.Work(); w.MemoMisses != 0 || w.MemoHits != bw.MemoMisses {
					t.Fatalf("a selection attached before the publication lost its nodes: %+v", w)
				}
				return
			}
		}
	}
	t.Fatal("no observation changed any query's first probe")
}

// TestDecisionMemoBound: distinct queries fill a tree to its node limit
// and no further; the next node starts a fresh tree, and a query answered
// before the reset answers the same after it.
func TestDecisionMemoBound(t *testing.T) {
	_, sets, truths := goldenRDSets(t)
	memo := newTestMemo()
	first := memo.slot.Load()
	run := func(n int) (Outcome, RankWork) {
		ci := 2 + n%200 // the random cases; the two paper examples are tiny
		s := NewSelectionFromRDs(sets[ci], Absolute, 2)
		s.query = "q" + strconv.Itoa(n)
		defer s.Release()
		out, err := APro(memo.attach(s), tableProbe(truths[ci]), Greedy{}, 0.95, -1)
		if err != nil {
			t.Fatal(err)
		}
		return out, s.Work()
	}
	early, _ := run(0)
	n := 1
	for ; memo.slot.Load() == first; n++ {
		if n > 4*memoMaxNodes {
			t.Fatalf("%d distinct queries never filled the tree (%d nodes)", n, memo.nodes())
		}
		run(n)
		if got := first.nodes.Load(); got > memoMaxNodes {
			t.Fatalf("after %d queries the tree holds %d nodes, limit %d", n, got, memoMaxNodes)
		}
	}
	if got := first.nodes.Load(); got != memoMaxNodes {
		t.Errorf("the tree was replaced at %d nodes, limit %d", got, memoMaxNodes)
	}
	if got := memo.nodes(); got > 16 {
		t.Errorf("the fresh tree starts with %d nodes", got)
	}
	t.Logf("%d distinct queries filled %d nodes", n, memoMaxNodes)
	again, w := run(0)
	if outcomeBits(again) != outcomeBits(early) {
		t.Errorf("query 0 after the reset:\n got %s\nwant %s", outcomeBits(again), outcomeBits(early))
	}
	if w.MemoHits != 0 || w.MemoMisses == 0 {
		t.Errorf("query 0 after the reset read a forgotten tree: %+v", w)
	}
	if again, w = run(0); outcomeBits(again) != outcomeBits(early) || w.MemoMisses != 0 {
		t.Errorf("query 0 a third time: work %+v\n got %s\nwant %s", w, outcomeBits(again), outcomeBits(early))
	}
}

// TestDecisionMemoNodeSizes holds the struct sizes behind memoMaxNodes'
// arithmetic (memo.go): a full tree stays under 8 MiB.
func TestDecisionMemoNodeSizes(t *testing.T) {
	node, root, tree := unsafe.Sizeof(memoNode{}), unsafe.Sizeof(memoRoot{}), unsafe.Sizeof(memoTree{})
	t.Logf("memoNode %d, memoRoot %d, empty tree %d bytes", node, root, tree)
	if node > 80 || root > 72 {
		t.Errorf("a memo struct grew: node %d (80), root %d (72)", node, root)
	}
	const queryBytes = 64
	full := memoMaxNodes*node + memoMaxNodes/2*(root+queryBytes) + tree
	t.Logf("a full memo is %.2f MiB", float64(full)/(1<<20))
	if full > 8<<20 {
		t.Errorf("a full memo is %d bytes, over 8 MiB", full)
	}
}

// rankWatch is Greedy recording, for every Rank on one selection, the
// state it ranked and whether it swept any candidate, and the states it
// ranked on any other selection: a lookahead's shell.
type rankWatch struct {
	Greedy
	on       *Selection
	states   []string
	computed []bool
	ahead    map[string]bool
}

// stateKey names a selection's state by what has been probed: each
// probed database with the value its RD collapsed to.
func stateKey(s *Selection) string {
	var b strings.Builder
	for i, probed := range s.probed {
		if probed {
			fmt.Fprintf(&b, "%d=%x ", i, math.Float64bits(s.rds[i].Value(0)))
		}
	}
	return b.String()
}

func (g *rankWatch) Rank(s *Selection, t float64, m int) ([]int, []float64, error) {
	before := s.work.Swept
	dbs, us, err := g.Greedy.Rank(s, t, m)
	if s == g.on {
		g.states = append(g.states, stateKey(s))
		g.computed = append(g.computed, s.work.Swept != before)
	} else {
		if g.ahead == nil {
			g.ahead = map[string]bool{}
		}
		g.ahead[stateKey(s)] = true
	}
	return dbs, us, err
}

// TestDecisionMemoLookahead: a lookahead ranks the state after each
// outcome of the probe in flight it gets to on a second shell; with a
// memo those ranks land in the children of the real state's node, so when
// the answer is one of the outcomes it ranked, the real next step finds
// its head there and sweeps nothing, and when it is not, the step sweeps
// as it would have without a lookahead.
func TestDecisionMemoLookahead(t *testing.T) {
	_, sets, truths := goldenRDSets(t)
	remembered, computed := 0, 0
	for ci := 2; ci < len(sets); ci++ {
		rds, truth := sets[ci], truths[ci] // fixture truths are support values
		want, err := APro(NewSelectionFromRDs(rds, Absolute, 2), tableProbe(truth), Greedy{}, 0.95, -1)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestMemo().attach(NewSelectionFromRDs(rds, Absolute, 2))
		p := &scriptedOverlapper{truth: truth, latency: time.Hour}
		watch := &rankWatch{on: s}
		var got Outcome
		if err := AProContext(context.Background(), s, p, watch, 0.95, -1, &got); err != nil {
			t.Fatal(err)
		}
		if outcomeBits(got) != outcomeBits(want) {
			t.Fatalf("case %d with lookahead and memo:\n got %s\nwant %s", ci, outcomeBits(got), outcomeBits(want))
		}
		if ahead := s.Ahead(); len(watch.computed) != len(got.Steps) || len(p.early) != ahead.Certain+ahead.Probable {
			t.Fatalf("case %d: %d ranks for %d steps, %d early starts for %+v", ci, len(watch.computed), len(got.Steps), len(p.early), ahead)
		}
		for step, state := range watch.states {
			if watch.computed[step] == watch.ahead[state] {
				t.Fatalf("case %d step %d: swept %v, ranked by a lookahead %v", ci, step, watch.computed[step], watch.ahead[state])
			}
			if watch.ahead[state] {
				remembered++
			} else if step > 0 {
				computed++
			}
		}
		s.Release()
	}
	if remembered < 20 || computed == 0 {
		t.Errorf("%d steps read from the memo a lookahead filled, %d later steps computed", remembered, computed)
	}
	t.Logf("%d steps read from the memo a lookahead filled, %d later steps computed", remembered, computed)
}

// TestDecisionMemoFailedProbeAndNaN: a failed probe folds as relevancy 0,
// so its edge is the one a genuine answer of 0 takes and either run finds
// the other's decisions; an answer of NaN equals nothing, so the
// selection stops remembering there and stores no node for it.
func TestDecisionMemoFailedProbeAndNaN(t *testing.T) {
	rds := []*RD{
		MustRD([]float64{0, 40, 90}, []float64{1, 2, 3}),
		MustRD([]float64{10, 50, 80}, []float64{2, 2, 1}),
		MustRD([]float64{20, 60, 70}, []float64{1, 1, 1}),
		MustRD([]float64{0, 30, 100}, []float64{3, 1, 2}),
	}
	truth := []float64{90, 50, 20, 30}
	base, err := APro(NewSelectionFromRDs(rds, Absolute, 2), tableProbe(truth), Greedy{}, 0.99, -1)
	if err != nil || len(base.Steps) < 2 {
		t.Fatalf("fixture: %d steps, %v", len(base.Steps), err)
	}
	head := base.Steps[0].DB

	memo := newTestMemo()
	down := errors.New("backend down")
	failing := func(i int) (float64, error) {
		if i == head {
			return 0, down
		}
		return truth[i], nil
	}
	zero := append([]float64(nil), truth...)
	zero[head] = 0
	failed, err := APro(memo.attach(NewSelectionFromRDs(rds, Absolute, 2)), failing, Greedy{}, 0.99, -1)
	if err != nil || !failed.Degraded {
		t.Fatalf("failing probe: %+v, %v", failed, err)
	}
	filled := memo.nodes()
	genuine := memo.attach(NewSelectionFromRDs(rds, Absolute, 2))
	answered, err := APro(genuine, tableProbe(zero), Greedy{}, 0.99, -1)
	if err != nil {
		t.Fatal(err)
	}
	if w := genuine.Work(); w.MemoMisses != 0 || memo.nodes() != filled {
		t.Errorf("a genuine 0 from db %d took another path than its failure: work %+v, nodes %d → %d", head, w, filled, memo.nodes())
	}
	if answered.Degraded || answered.Certainty != failed.Certainty || fmt.Sprint(answered.Set) != fmt.Sprint(failed.Set) || len(answered.Steps) != len(failed.Steps) {
		t.Errorf("genuine 0: %s\nfailed probe: %s", outcomeBits(answered), outcomeBits(failed))
	}

	nan := append([]float64(nil), truth...)
	nan[head] = math.NaN()
	for pass := 0; pass < 2; pass++ {
		s := memo.attach(NewSelectionFromRDs(rds, Absolute, 2))
		before := memo.nodes()
		if _, err := APro(s, tableProbe(nan), Greedy{}, 0.99, -1); err != nil {
			t.Fatal(err)
		}
		// The root's two decisions are remembered; nothing after the NaN is.
		if w := s.Work(); s.memo != nil || memo.nodes() != before || w.MemoHits != 2 || w.MemoMisses != 0 {
			t.Errorf("pass %d over a NaN answer: attached %v, nodes %d → %d, work %+v", pass, s.memo != nil, before, memo.nodes(), w)
		}
	}
}

// TestDecisionMemoOutsideThePureForms: what a node remembers is the
// state's decision, so the forms of Rank that depend on more — a cost
// function, more than one candidate — a hypothesis and the reference
// path neither read it nor write it.
func TestDecisionMemoOutsideThePureForms(t *testing.T) {
	_, sets, _ := goldenRDSets(t)
	rds := sets[5]
	memo := newTestMemo()
	s := memo.attach(NewSelectionFromRDs(rds, Absolute, 2))
	defer s.Release()
	costly := Greedy{Cost: func(i int) float64 { return float64(1 + i) }}
	if _, _, err := costly.Rank(s, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (Greedy{}).Rank(s, 0.9, 0); err != nil {
		t.Fatal(err)
	}
	s.withHypothesisIdx(0, 0, func() { s.Best() })
	s.noScratch = true
	s.Best()
	if _, _, err := (Greedy{}).Rank(s, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	s.noScratch = false
	if w := s.Work(); w.MemoHits != 0 || w.MemoMisses != 0 || s.memo.best.Load() != memoUnset || s.memo.rank.Load() != memoUnset {
		t.Fatalf("a form outside the memo touched it: %+v", w)
	}
}
