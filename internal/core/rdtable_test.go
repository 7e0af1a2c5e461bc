package core

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprobe/internal/estimate"
	"metaprobe/internal/summary"
)

// requireSameSelection pins a table-lookup selection against the
// from-scratch reference bit for bit: estimates, RD supports,
// probabilities and cumulative tails must be identical floats, and the
// selected set and its certainty must match exactly.
func requireSameSelection(t *testing.T, got, want *Selection, ctx string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d databases, want %d", ctx, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Estimate(i) != want.Estimate(i) {
			t.Fatalf("%s: db %d estimate %v, want %v", ctx, i, got.Estimate(i), want.Estimate(i))
		}
		g, w := got.RD(i), want.RD(i)
		if g.Len() != w.Len() {
			t.Fatalf("%s: db %d RD has %d points, want %d", ctx, i, g.Len(), w.Len())
		}
		for j := 0; j < w.Len(); j++ {
			if g.Value(j) != w.Value(j) || g.Prob(j) != w.Prob(j) {
				t.Fatalf("%s: db %d point %d (%v, %v), want (%v, %v)",
					ctx, i, j, g.Value(j), g.Prob(j), w.Value(j), w.Prob(j))
			}
		}
		for j := 0; j <= w.Len(); j++ {
			if g.cumLT[j] != w.cumLT[j] || g.cumGE[j] != w.cumGE[j] {
				t.Fatalf("%s: db %d cumulative %d differs", ctx, i, j)
			}
		}
		if err := g.validate(); err != nil {
			t.Fatalf("%s: db %d invalid RD: %v", ctx, i, err)
		}
	}
	gSet, gE := got.Best()
	wSet, wE := want.Best()
	if gE != wE || len(gSet) != len(wSet) {
		t.Fatalf("%s: best (%v, %v), want (%v, %v)", ctx, gSet, gE, wSet, wE)
	}
	for i := range wSet {
		if gSet[i] != wSet[i] {
			t.Fatalf("%s: best set %v, want %v", ctx, gSet, wSet)
		}
	}
}

// fixedEstimate overrides r̂ for the queries it names, to reach
// estimates no summary produces.
type fixedEstimate struct {
	estimate.Relevancy
	rhat map[string]float64
}

func (f fixedEstimate) Estimate(s *summary.Summary, query string) float64 {
	if v, ok := f.rhat[query]; ok {
		return v
	}
	return f.Relevancy.Estimate(s, query)
}

// TestVersionSelectionMatchesModel is the core differential: for every
// held-out query, the RD-table path (ModelVersion.NewSelection) must
// produce exactly the selection the from-scratch path (RDFor per
// database) produces — same floats, same set — for both metrics and
// several k, with and without shell reuse. Two more inputs carry
// estimates a template cannot be scaled by — a denormal, under which
// support points collide, and one large enough to overflow them — so
// the rows' frozen EDs are pinned against Model.RDFor as well.
func TestVersionSelectionMatchesModel(t *testing.T) {
	trained, _, test := buildTrainedModel(t)
	model := *trained
	odd := map[string]float64{"denormal estimate": 5e-324, "huge estimate": 1e308}
	model.Rel = fixedEstimate{trained.Rel, odd}
	ver := NewModelVersion(&model, "train", time.Now())
	shell := &Selection{}
	check := func(qs string, numTerms int, metric Metric, k int) {
		want := model.newSelection(qs, numTerms, metric, k)
		requireSameSelection(t, ver.NewSelection(qs, numTerms, metric, k), want, qs)
		// The recycled-shell path must be identical to the fresh one.
		requireSameSelection(t, ver.FillSelection(shell, qs, numTerms, metric, k), want, qs+" (reused shell)")
		shell.Release()
	}
	for _, metric := range []Metric{Absolute, Partial} {
		for _, k := range []int{1, 3} {
			for _, q := range test {
				check(q.String(), q.NumTerms(), metric, k)
			}
			for qs, rhat := range odd {
				check(qs, 2, metric, k)
				scaled := 0
				for i := range model.DBs {
					if ver.rdtab.row(i, keyOffset(model.Cfg.Classifier.Classify(2, rhat))).Load().kind == rdEntryScaled {
						scaled++
					}
				}
				if scaled == 0 {
					t.Fatalf("%s: no database serves it from a scaled row", qs)
				}
			}
		}
	}
}

// pickRetrainKey deterministically picks a trusted relative-band key
// from db's ED map — the kind of key an online refresh retrains.
func pickRetrainKey(t *testing.T, m *Model, dbIdx int) TypeKey {
	t.Helper()
	best, found := TypeKey{}, false
	for key, ed := range m.DBs[dbIdx].EDs {
		if key.Band == BandZero || ed.Observations() < m.Cfg.MinObservations {
			continue
		}
		if !found || key.Terms < best.Terms || (key.Terms == best.Terms && key.Band < best.Band) {
			best, found = key, true
		}
	}
	if !found {
		t.Fatalf("db %d has no trusted relative-band ED to retrain", dbIdx)
	}
	return best
}

// cowRefresh replicates the facade's refresh commit: the WithED
// successor sharing everything with m except the retrained key's ED.
// Returns the model and the retrained key.
func cowRefresh(t *testing.T, m *Model, dbIdx int) (*Model, TypeKey) {
	t.Helper()
	key := pickRetrainKey(t, m, dbIdx)
	next, err := m.WithED(dbIdx, key, m.DBs[dbIdx].EDs[key].Clone())
	if err != nil {
		t.Fatal(err)
	}
	return next, key
}

// TestRDTableRefreshSwapCOW checks the copy-on-write derivation across
// ModelVersion.Next after a refresh-style commit: untouched databases
// share their table rows by pointer, the retrained key's row is
// rebuilt, the retrained database's other rows stay shared, and both
// the old and new versions keep serving selections identical to their
// own model's from-scratch path.
func TestRDTableRefreshSwapCOW(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	ver := NewModelVersion(model, "train", time.Now())
	const dbIdx = 0
	nm, key := cowRefresh(t, model, dbIdx)
	next := ver.Next(nm, "refresh", nm.DBs[dbIdx].Name, time.Now())

	ot, nt := ver.rdtab, next.rdtab
	for db := range model.DBs {
		for k := 0; k <= nt.nKeys; k++ { // k == nKeys is the pooled row
			oldRow := ot.row(db, k).Load()
			newRow := nt.row(db, k).Load()
			if newRow == nil {
				t.Fatalf("db %d key %v: prebuild left a nil row", db, keyAt(k))
			}
			retrained := db == dbIdx && k == keyOffset(key)
			if retrained {
				if newRow == oldRow {
					t.Fatalf("retrained key %v row shared across Next", key)
				}
				if newRow.kind == rdEntryCold {
					t.Fatalf("retrained key %v rebuilt as cold", key)
				}
			} else if newRow != oldRow {
				t.Fatalf("db %d key %v: untouched row rebuilt instead of shared", db, keyAt(k))
			}
		}
	}

	// Both versions stay coherent with their own model.
	for _, q := range test[:30] {
		qs := q.String()
		requireSameSelection(t, next.NewSelection(qs, q.NumTerms(), Absolute, 2),
			nm.newSelection(qs, q.NumTerms(), Absolute, 2), qs+" (new version)")
		requireSameSelection(t, ver.NewSelection(qs, q.NumTerms(), Absolute, 2),
			model.newSelection(qs, q.NumTerms(), Absolute, 2), qs+" (old version)")
	}
}

// tableRows snapshots a table's row pointers.
func tableRows(tab *rdTable) []*rdEntry {
	rows := make([]*rdEntry, len(tab.rows))
	for i := range rows {
		rows[i] = tab.rows[i].Load()
	}
	return rows
}

// requireFreshTable holds every row of tab to a table built from
// scratch over m's EDs as they stand: the same content, and the pooled
// row itself wherever the fresh build serves a key by it.
func requireFreshTable(t *testing.T, tab *rdTable, m *Model, ctx string) {
	t.Helper()
	fresh := newRDTable(m)
	fresh.prebuild(m)
	if tab.nKeys != fresh.nKeys || len(tab.rows) != len(fresh.rows) {
		t.Fatalf("%s: table shaped %d×%d, a fresh one %d×%d", ctx, len(tab.rows), tab.nKeys, len(fresh.rows), fresh.nKeys)
	}
	for db := range m.DBs {
		for k := 0; k <= tab.nKeys; k++ { // k == nKeys is the pooled row
			got, want := tab.row(db, k).Load(), fresh.row(db, k).Load()
			if got == nil || !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s: db %d row %d is not the row a fresh build over the EDs has", ctx, db, k)
			}
			if byPooled := want == fresh.row(db, fresh.nKeys).Load(); byPooled != (got == tab.row(db, tab.nKeys).Load()) {
				t.Fatalf("%s: db %d row %d served by the pooled row: %v, in a fresh build %v", ctx, db, k, !byPooled, byPooled)
			}
		}
	}
}

// TestObserveProbeRebuildsRDTable checks coherence with online
// refinement, epoch by epoch: the first epochObservations − 1
// observations of an epoch leave every row pointer as published, the
// next one leaves the table equal to one built from scratch over the
// EDs, and selections match the from-scratch path exactly again. Next
// publishes whatever is pending before it derives: both its tables equal
// a fresh build over their models.
func TestObserveProbeRebuildsRDTable(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	ver := NewModelVersion(model, "train", time.Now())
	observe := func(v *ModelVersion, n int) {
		t.Helper()
		q := test[n%len(test)]
		if err := v.ObserveProbe(n%len(v.Model.DBs), q.String(), q.NumTerms(), float64(n%9)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for epoch := 0; epoch < 3; epoch++ {
		published := tableRows(ver.rdtab)
		for i := 0; i < epochObservations-1; i++ {
			observe(ver, n)
			n++
			if !slices.Equal(tableRows(ver.rdtab), published) {
				t.Fatalf("epoch %d: observation %d of %d moved a row", epoch, i+1, epochObservations)
			}
		}
		observe(ver, n)
		n++
		if slices.Equal(tableRows(ver.rdtab), published) {
			t.Fatalf("epoch %d: %d observations moved no row", epoch, epochObservations)
		}
		requireFreshTable(t, ver.rdtab, model, "after a whole epoch")
		for _, q := range test[:20] {
			qs := q.String()
			requireSameSelection(t, ver.NewSelection(qs, q.NumTerms(), Absolute, 2),
				model.newSelection(qs, q.NumTerms(), Absolute, 2), qs+" (after a whole epoch)")
		}
	}

	// Half an epoch pending when the successor is derived.
	for i := 0; i < epochObservations/2; i++ {
		observe(ver, n)
		n++
	}
	nm, _ := cowRefresh(t, model, 0)
	next := ver.Next(nm, "refresh", nm.DBs[0].Name, time.Now())
	requireFreshTable(t, ver.rdtab, model, "the predecessor after Next")
	requireFreshTable(t, next.rdtab, nm, "the successor")
	// The successor's epoch starts at its publication, not its predecessor's.
	published := tableRows(next.rdtab)
	for i := 0; i < epochObservations-1; i++ {
		observe(next, n)
		n++
	}
	if !slices.Equal(tableRows(next.rdtab), published) {
		t.Fatalf("the successor republished within %d observations", epochObservations-1)
	}
	observe(next, n)
	requireFreshTable(t, next.rdtab, nm, "the successor after a whole epoch")
}

// TestVersionSwapUnderTraffic hammers table-lookup fills — taking no
// lock at all — against one writer doing online refinement and
// refresh-style version swaps; run with -race it proves the read path
// touches nothing a writer mutates. While the writer runs every filled
// RD must be a valid distribution and the best set the selection gets —
// from the version's decision memo or not — the one a detached copy of
// it computes; once the writer is done a fill must equal the
// from-scratch path bit for bit.
func TestVersionSwapUnderTraffic(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	var cur atomic.Pointer[ModelVersion]
	cur.Store(NewModelVersion(model, "train", time.Now()))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sel, ref := &Selection{}, &Selection{}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := test[(seed*31+n)%len(test)]
				cur.Load().FillSelection(sel, q.String(), q.NumTerms(), Absolute, 2)
				for i := 0; i < sel.Len(); i++ {
					if err := sel.RD(i).validate(); err != nil {
						t.Errorf("%s: db %d under swap: %v", q, i, err)
						return
					}
				}
				detach(ref, sel)
				set, e := sel.BestView()
				if wantSet, wantE := ref.BestView(); e != wantE || !slices.Equal(set, wantSet) {
					t.Errorf("%s under swap: best set %v (%v), a detached copy computes %v (%v)", q, set, e, wantSet, wantE)
					return
				}
				sel.Release()
				ref.Release()
			}
		}(r)
	}
	for n := 0; n < 150; n++ {
		q := test[n%len(test)]
		v := cur.Load()
		dbIdx := n % len(v.Model.DBs)
		if err := v.ObserveProbe(dbIdx, q.String(), q.NumTerms(), float64(n%7)); err != nil {
			t.Error(err)
		}
		if n%10 == 9 {
			nm, _ := cowRefresh(t, v.Model, dbIdx)
			cur.Store(v.Next(nm, "refresh", nm.DBs[dbIdx].Name, time.Now()))
		}
	}
	close(stop)
	wg.Wait()
	v := cur.Load()
	for _, q := range test[:40] {
		qs := q.String()
		requireSameSelection(t, v.NewSelection(qs, q.NumTerms(), Absolute, 2),
			v.Model.newSelection(qs, q.NumTerms(), Absolute, 2), qs+" (writer done)")
	}
}

// TestReuseDoesNotAliasTableState checks the read-only contract around
// shared table RDs: a selection built from another via Reuse must own
// its mutable state (probed impulses, table-derived scaled supports),
// so refilling or probing the original never changes the copy.
func TestReuseDoesNotAliasTableState(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	ver := NewModelVersion(model, "train", time.Now())
	q1, q2 := test[0], test[1]
	tmpl := ver.NewSelection(q1.String(), q1.NumTerms(), Absolute, 2)
	tmpl.ApplyProbe(0, 3.5)

	cp := &Selection{}
	cp.Reuse(tmpl)
	snapVals := make([][]float64, cp.Len())
	snapProbs := make([][]float64, cp.Len())
	for i := 0; i < cp.Len(); i++ {
		snapVals[i] = append([]float64(nil), cp.RD(i).values...)
		snapProbs[i] = append([]float64(nil), cp.RD(i).probs...)
	}

	// Clobber the original: refill it for a different query (rewriting
	// its derived buffers and impulses in place) and probe it again.
	ver.FillSelection(tmpl, q2.String(), q2.NumTerms(), Absolute, 2)
	tmpl.ApplyProbe(0, 99.0)

	for i := 0; i < cp.Len(); i++ {
		rd := cp.RD(i)
		if rd.Len() != len(snapVals[i]) {
			t.Fatalf("db %d: copy's RD length changed after original was refilled", i)
		}
		for j := range snapVals[i] {
			if rd.Value(j) != snapVals[i][j] || rd.Prob(j) != snapProbs[i][j] {
				t.Fatalf("db %d point %d: copy aliased the original's buffers", i, j)
			}
		}
	}
}

// TestRDForSharesZeroImpulse checks the cold-regime fix: a database
// with no usable error model and r̂ = 0 — by far the most common cold
// case — serves the shared read-only impulse instead of allocating one
// per query.
func TestRDForSharesZeroImpulse(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	nm := model // freshly trained for this test, so its EDs are ours to drop
	for _, dm := range nm.DBs {
		for key := range dm.EDs {
			if key.Band == BandZero {
				delete(dm.EDs, key)
			}
		}
	}
	checked := false
	for _, q := range test {
		qs := q.String()
		for i := range nm.DBs {
			if nm.Rel.Estimate(nm.Summaries.Summaries[i], qs) != 0 {
				continue
			}
			rd, rhat := nm.rdFor(i, qs, q.NumTerms())
			if rhat != 0 || rd != zeroImpulse {
				t.Fatalf("cold r̂=0 regime returned %v (r̂=%v), want the shared zero impulse", rd, rhat)
			}
			again, _ := nm.rdFor(i, qs, q.NumTerms())
			if again != rd {
				t.Fatalf("cold r̂=0 regime allocated a fresh impulse on repeat")
			}
			checked = true
		}
		if checked {
			break
		}
	}
	if !checked {
		t.Skip("no (db, query) pair with r̂ = 0 in the testbed")
	}
}

// TestFillSelectionSteadyStateAllocs guards the table-lookup fill's
// allocation behavior: once a shell has warmed up, refilling it for new
// queries must allocate nothing beyond the relevancy estimator's own
// per-call cost (tokenization), which the from-scratch path pays too.
func TestFillSelectionSteadyStateAllocs(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	ver := NewModelVersion(model, "train", time.Now())
	qs := make([]string, 8)
	nt := make([]int, 8)
	for i, q := range test[:8] {
		qs[i], nt[i] = q.String(), q.NumTerms()
	}
	sel := &Selection{}
	for i := range qs {
		ver.FillSelection(sel, qs[i], nt[i], Absolute, 2)
	}
	var qi int
	estOnly := testing.AllocsPerRun(100, func() {
		j := qi % len(qs)
		qi++
		for i := range model.DBs {
			model.Rel.Estimate(model.Summaries.Summaries[i], qs[j])
		}
	})
	qi = 0
	fill := testing.AllocsPerRun(100, func() {
		j := qi % len(qs)
		qi++
		ver.FillSelection(sel, qs[j], nt[j], Absolute, 2)
	})
	if fill > estOnly {
		t.Fatalf("steady-state FillSelection allocates %v objects per op, want at most the estimator's %v", fill, estOnly)
	}
}
