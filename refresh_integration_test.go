package metaprobe

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/eval"
	"metaprobe/internal/hidden"
	"metaprobe/internal/leakcheck"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// TestRefreshEndToEnd is the acceptance test for the closed drift
// loop: a database's collection grows ~10× (uniformly — the same topic
// profile at ten times the volume, so every query's match count scales
// while summaries and the error model go stale), the drift detector
// alerts, the background refresher re-probes the alerted (database,
// query type) keys within its budget, validates the retrained EDs on a
// holdout, and hot-swaps a successor model — all while concurrent
// selections keep running with zero failures (run under -race).
//
// It also states what the loop is for: plain RD selection over the
// held-out workload, scored against the golden standard, loses
// correctness when the model goes stale and gets it back from the
// committed refreshes.
func TestRefreshEndToEnd(t *testing.T) {
	// The refresher spawns a background retraining goroutine per alert
	// burst; none may outlive the metasearcher's Close.
	leakcheck.Check(t)
	world := corpus.HealthWorld()
	specs := corpus.HealthTestbed(0.01)[:6]
	tb, err := hidden.BuildTestbed(world, specs, 23)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}
	sums, err := ExactSummaries(dbs)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := gen.TrainTest(stats.NewRNG(4), 150, 150, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The refresher's probe-query source: a held-out workload-like pool,
	// disjoint from both training and the driving workload.
	pool, err := gen.Pool(stats.NewRNG(77), 600, 600)
	if err != nil {
		t.Fatal(err)
	}
	// Every refresh task asks the source for queries before it can
	// commit, and the alert that queued it stays in DriftStatuses until a
	// commit of its key re-anchors the key's window. So the keys
	// DriftStatuses shows alerted here include the key of every task
	// that goes on to replace an ED.
	var (
		ms      *Metasearcher
		alertMu sync.Mutex
		alerted = make(map[string]bool) // "db|queryType"
	)
	source := func(numTerms, n int) []string {
		alertMu.Lock()
		for _, s := range ms.DriftStatuses() {
			if s.Alerts > 0 {
				alerted[s.DB+"|"+s.QueryType] = true
			}
		}
		alertMu.Unlock()
		var out []string
		for _, q := range pool {
			if q.NumTerms() == numTerms {
				out = append(out, q.String())
				if len(out) >= n {
					break
				}
			}
		}
		return out
	}

	reg := NewMetrics()
	cfg := &Config{Metrics: reg, Drift: true, RefreshQueries: source}
	ms, err = New(dbs, sums, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	trainStrs := make([]string, len(train))
	for i, q := range train {
		trainStrs[i] = q.String()
	}
	if err := ms.Train(trainStrs); err != nil {
		t.Fatal(err)
	}
	if info := ms.ModelInfo(); info.Version != 1 || info.Source != "train" {
		t.Fatalf("post-train ModelInfo = %+v", info)
	}

	// Correctness of plain RD selection (no probing, so the numbers
	// isolate model quality) on the held-out workload, before the drift;
	// and the trained snapshot, to serve stale over the drifted testbed.
	const k = 2
	scoreRD := func(ms *Metasearcher) eval.MethodScore {
		t.Helper()
		golden, err := eval.BuildGolden(tb, DocFrequencyRelevancy(), test)
		if err != nil {
			t.Fatal(err)
		}
		score, err := eval.Score(golden, k, func(q queries.Query) ([]int, int, error) {
			names, _, err := ms.Select(q.String(), k, Absolute)
			set := make([]int, len(names))
			for i, name := range names {
				set[i] = tb.IndexOf(name)
			}
			sort.Ints(set)
			return set, 0, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return score
	}
	preDrift := scoreRD(ms)
	stalePath := filepath.Join(t.TempDir(), "stale.json")
	if err := ms.SaveModel(stalePath); err != nil {
		t.Fatal(err)
	}

	// Snapshot the trained model's ED pointers: with OnlineRefinement
	// off, any pointer that differs afterwards was replaced by a refresh
	// commit — and must belong to an alerted key.
	trained := ms.serving()
	origED := make(map[string]*core.ED)
	for i, dm := range trained.DBs {
		for key, ed := range dm.EDs {
			origED[tb.DB(i).Name()+"|"+key.String()] = ed
		}
	}

	// The drift: OncoLink grows to ~10× its size with documents drawn
	// from its own spec — same topic profile, ten times the volume — so
	// every query's match count scales while the model serves stale. At
	// 120 → 1 200 documents it overtakes NIH's 637 and enters the true
	// top-2 of the oncology queries, so the staleness is visible to a
	// selector (growing one of the 50-document databases is not: it
	// changes too few answer sets to move Cor_p).
	const driftDB = "OncoLink"
	dbIdx := tb.IndexOf(driftDB)
	if dbIdx < 0 {
		t.Fatalf("testbed lost %s", driftDB)
	}
	local, ok := tb.DB(dbIdx).(*hidden.Local)
	if !ok {
		t.Fatalf("%s is not a local database", driftDB)
	}
	grown := specs[dbIdx]
	grown.Name = driftDB + "-x10"
	grown.NumDocs = local.Size() * 9
	newDocs, err := world.Generate(grown, stats.NewRNG(23).Fork(999))
	if err != nil {
		t.Fatal(err)
	}
	local.AddDocuments(newDocs)

	staleMs, err := NewFromModel(dbs, stalePath, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := scoreRD(staleMs)

	// Concurrent selections run throughout detection, retraining and the
	// version swaps; every one of them must succeed (the swap is a
	// pointer store, never a lock a selection can observe half-way).
	stop := make(chan struct{})
	var selWG sync.WaitGroup
	var selCount int64
	var selErr error
	var selErrOnce sync.Once
	for g := 0; g < 3; g++ {
		selWG.Add(1)
		go func(g int) {
			defer selWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := test[(g*31+i)%len(test)]
				if _, err := ms.SelectWithCertainty(q.String(), 2, Absolute, 0.9, -1); err != nil {
					selErrOnce.Do(func() { selErr = err })
					return
				}
				alertMu.Lock()
				selCount++
				alertMu.Unlock()
			}
		}(g)
	}

	// Drive the workload over the drifted corpus until a refresh of the
	// drifted database commits: probes fill the drift windows, and
	// alerts queue refreshes of every key that fails its test.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && ms.ModelInfo().RefreshedAt[driftDB].IsZero() {
		for _, q := range test {
			if _, err := ms.SelectWithCertainty(q.String(), 2, Absolute, 0.99, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	selWG.Wait()
	if selErr != nil {
		t.Fatalf("a selection failed during the refresh window: %v", selErr)
	}
	if selCount == 0 {
		t.Fatal("the concurrent selectors never completed a selection")
	}

	st := ms.RefreshStats()
	if st.Refreshes == 0 {
		t.Fatalf("no refresh was accepted before the deadline: %+v", st)
	}
	if st.Queued == 0 {
		t.Fatal("refresher received no alerts")
	}
	tasks := st.Refreshes + st.Rollbacks + st.Aborted + st.Superseded
	if st.ProbesSpent > tasks*96 {
		t.Errorf("refresh tasks spent %d probes over %d tasks, budget 96 each", st.ProbesSpent, tasks)
	}
	if v := st.LastValidation; v == nil {
		t.Error("no validation recorded")
	} else if v.ProbesSpent > 96 {
		t.Errorf("last task spent %d probes, budget 96", v.ProbesSpent)
	}

	info := ms.ModelInfo()
	if info.Version != 1+st.Refreshes {
		t.Errorf("model version %d after %d accepted refreshes", info.Version, st.Refreshes)
	}
	if info.Source != "refresh" {
		t.Errorf("serving version source = %q, want refresh", info.Source)
	}
	if info.RefreshedAt[driftDB].IsZero() {
		t.Errorf("ModelInfo records no refresh for %s: %+v", driftDB, info.RefreshedAt)
	}

	// Only alerted keys were retrained: every ED pointer that changed
	// since training maps to a recorded drift alert, and at least one
	// did change (the committed refresh).
	alertMu.Lock()
	alertedCopy := make(map[string]bool, len(alerted))
	for k := range alerted {
		alertedCopy[k] = true
	}
	alertMu.Unlock()
	cur := ms.serving()
	changed := 0
	for i, dm := range cur.DBs {
		name := tb.DB(i).Name()
		for key, ed := range dm.EDs {
			id := name + "|" + key.String()
			if origED[id] == ed {
				continue
			}
			changed++
			// Undrifted databases may still be retrained — repeated KS
			// testing eventually raises a false-positive alert — but
			// nothing is ever retrained without an alert.
			if !alertedCopy[id] {
				t.Errorf("ED %s was replaced without a drift alert", id)
			}
		}
	}
	if changed == 0 {
		t.Error("an accepted refresh left every ED pointer unchanged")
	}
	// The trained snapshot itself was never mutated (copy-on-write).
	for key, ed := range trained.DBs[dbIdx].EDs {
		if origED[driftDB+"|"+key.String()] != ed {
			t.Errorf("refresh mutated the original model's ED %s", key)
		}
	}

	// What the loop buys: staleness cost correctness against the
	// post-drift golden standard, and the refreshed model recovers it.
	refreshed := scoreRD(ms)
	t.Logf("RD selection, k=%d: pre-drift Cor_a %.3f Cor_p %.3f; stale %.3f %.3f; after %d refreshes %.3f %.3f",
		k, preDrift.AvgCorA, preDrift.AvgCorP, stale.AvgCorA, stale.AvgCorP,
		st.Refreshes, refreshed.AvgCorA, refreshed.AvgCorP)
	if stale.AvgCorP >= preDrift.AvgCorP {
		t.Errorf("stale Cor_p %v did not drop below the pre-drift %v", stale.AvgCorP, preDrift.AvgCorP)
	}
	if refreshed.AvgCorP <= stale.AvgCorP {
		t.Errorf("refreshed Cor_p %v did not recover above the stale %v", refreshed.AvgCorP, stale.AvgCorP)
	}
	if refreshed.AvgCorA < stale.AvgCorA {
		t.Errorf("refreshed Cor_a %v fell below the stale %v", refreshed.AvgCorA, stale.AvgCorA)
	}

	// The refresh outcome counters surface in the exposition.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `mp_refresh_total{outcome="ok"}`) {
		t.Errorf("metrics output lacks mp_refresh_total{outcome=\"ok\"}:\n%s", grepLines(sb.String(), "mp_refresh"))
	}

	// Hot reload round-trip: persist the refreshed model and swap it
	// back in from disk without interrupting traffic.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ms.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReloadModel(path); err != nil {
		t.Fatal(err)
	}
	info = ms.ModelInfo()
	if info.Source != "reload" {
		t.Errorf("post-reload source = %q", info.Source)
	}
	if _, err := ms.SelectWithCertainty(test[0].String(), 2, Absolute, 0.9, -1); err != nil {
		t.Fatalf("selection after hot reload: %v", err)
	}
}

// TestSelectUnderRefinementAndReload hammers the lock-free read path
// from the facade: with online refinement, drift detection and the
// refresher all on, eight goroutines select and explain while another
// keeps reloading, saving and refreshing the model. Run with -race it
// proves that selections read nothing a writer touches and that the
// writers — probe feedback, publication with its drift re-anchoring,
// SaveModel, the refresher's ED copy and commit — exclude one another.
func TestSelectUnderRefinementAndReload(t *testing.T) {
	leakcheck.Check(t)
	var test []string
	cfg := &Config{
		OnlineRefinement: true,
		Drift:            true,
		RefreshQueries: func(numTerms, n int) []string {
			var out []string
			for _, q := range test {
				if len(strings.Fields(q)) == numTerms && len(out) < n {
					out = append(out, q)
				}
			}
			return out
		},
	}
	ms, qs := buildTestMetasearcherWith(t, cfg, nil)
	defer ms.Close()
	test = qs // the refresher is idle until the first RefreshNow below
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ms.SaveModel(path); err != nil {
		t.Fatal(err)
	}

	const k = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := test[(g*7+i)%len(test)]
				if g%4 == 3 {
					if ex, err := ms.Explain(q, k); err != nil || len(ex) != len(ms.Databases()) {
						t.Errorf("Explain(%q) = %d rows, %v", q, len(ex), err)
						return
					}
					continue
				}
				res, err := ms.SelectWithCertaintyContext(context.Background(), q, k, Absolute, 0.95, -1)
				if err != nil || len(res.Databases) != k {
					t.Errorf("select %q = %+v, %v", q, res, err)
					return
				}
			}
		}(g)
	}
	dbs := ms.Databases()
	for i := 0; i < 12; i++ {
		if err := ms.ReloadModel(path); err != nil {
			t.Fatal(err)
		}
		if err := ms.SaveModel(path); err != nil {
			t.Fatal(err)
		}
		key := core.TypeKey{Terms: 1 + i%2, Band: core.EstimateBand(i % 3)}
		if err := ms.RefreshNow(dbs[i%len(dbs)], key.String()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// With the writers gone, what the facade answers — remembered or not —
	// is the memo-less engine's answer over the rows the serving version
	// has published.
	ms.Close()
	for _, q := range test[:12] {
		want := ms.directOverRows(t, q, k, 0.95)
		res, err := ms.SelectWithCertaintyContext(context.Background(), q, k, Absolute, 0.95, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ms.sameAnswer(res, want); err != nil {
			t.Errorf("%q after the hammer: %v", q, err)
		}
	}
}
