package modelhost

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/estimate"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/refresh"
	"metaprobe/internal/stats"
	"metaprobe/internal/summary"
)

// trained is a small trained pipeline: four health databases, a model
// over them that no test installs itself (each installs a copy, as a
// reload would), and held-out queries.
type trained struct {
	base  *core.Model
	names []string
	test  []queries.Query
}

func train(t *testing.T) *trained {
	t.Helper()
	w := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(w, corpus.HealthTestbed(0.02)[:4], 11)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := summary.BuildExact(tb)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(w, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trainQ, test, err := gen.TrainTest(stats.NewRNG(31), 150, 150, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	// Nothing on a testbed this small estimates over the paper's 100;
	// a lower split populates the high band too.
	cfg.Classifier.Threshold = 0.1
	model, err := core.Train(tb, sums, estimate.NewDocFrequency(), trainQ, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trained{base: model, test: test}
	for _, dm := range model.DBs {
		tr.names = append(tr.names, dm.Name)
	}
	return tr
}

// deepCopy returns a model sharing no ED with m (configuration,
// relevancy and summaries are read-only and shared). Callers hold
// whatever lock guards m's EDs.
func deepCopy(m *core.Model) *core.Model {
	cp := *m
	cp.DBs = make([]*core.DBModel, len(m.DBs))
	for i, dm := range m.DBs {
		c := &core.DBModel{Name: dm.Name, Pooled: dm.Pooled.Clone(), EDs: make(map[core.TypeKey]*core.ED, len(dm.EDs))}
		for key, ed := range dm.EDs {
			c.EDs[key] = ed.Clone()
		}
		cp.DBs[i] = c
	}
	return &cp
}

// epoch is core's epochObservations: how many refining observations a
// version takes between two publications of its RD rows.
const epoch = 64

// picture is everything a reader took out of one selection, detached
// from the shell it was filled into.
type picture struct {
	est   []float64
	vals  [][]float64
	probs [][]float64
	set   []int
	cor   float64
}

func depict(sel *core.Selection) picture {
	p := picture{}
	for i := 0; i < sel.Len(); i++ {
		rd := sel.RD(i)
		pr := make([]float64, rd.Len())
		for j := range pr {
			pr[j] = rd.Prob(j)
		}
		p.est = append(p.est, sel.Estimate(i))
		p.vals = append(p.vals, rd.Support())
		p.probs = append(p.probs, pr)
	}
	set, cor := sel.BestView()
	p.set = slices.Clone(set)
	p.cor = cor
	return p
}

// fromScratch fills q's selection from a version published afresh over
// m: rows built from m's EDs as they stand, and a memo that remembers
// nothing yet.
func fromScratch(m *core.Model, q queries.Query, k int) picture {
	sel := core.NewModelVersion(m, "scratch", time.Time{}).NewSelection(q.String(), q.NumTerms(), core.Absolute, k)
	defer sel.Release()
	return depict(sel)
}

// same compares bit for bit (no NaN reaches an RD or a certainty).
func (p picture) same(q picture) bool {
	return slices.Equal(p.est, q.est) && slices.Equal(p.set, q.set) && p.cor == q.cor &&
		slices.EqualFunc(p.vals, q.vals, slices.Equal[[]float64]) &&
		slices.EqualFunc(p.probs, q.probs, slices.Equal[[]float64])
}

// TestViewCoherentUnderWriters runs lock-free readers — View, Fill, best
// set — against the three ways the serving model changes: Install (a
// reload), Observe with refinement, and a refresh's Serving + Commit.
// Every selection a reader filled must equal, bit for bit, a selection
// filled from a version published afresh over a deep copy of the model
// taken under Locked at the version the reader's Provenance names; and
// the versions a reader sees only grow.
//
// The writers take a test mutex around each (write, copy) pair, so that
// no state a reader can see goes uncopied; they still meet the readers,
// the lock-holding Serving calls and the drift-only Observe calls
// unserialized. Readers see an observation when its epoch's rows are
// published, so a copy is a state they can see only when no observation
// is pending: the refining writer observes a whole epoch between copies
// (every version starts with none pending, and every other write
// publishes one). Refinement is kept to database 0: a fill reads one row
// per database, so with one database moving, what it read is one state.
func TestViewCoherentUnderWriters(t *testing.T) {
	tr := train(t)
	h := New(tr.names, true, nil)

	var (
		wmu    sync.Mutex // writers: one (write, copy) at a time
		copies = map[int64][]*core.Model{}
	)
	written := func() { // with wmu held, after a write
		h.Locked(func(ver *core.ModelVersion) error {
			copies[ver.Version] = append(copies[ver.Version], deepCopy(ver.Model))
			return nil
		})
	}
	wmu.Lock()
	h.Install(deepCopy(tr.base), "train")
	written()
	wmu.Unlock()

	type sample struct {
		version int64
		q       queries.Query
		pic     picture
	}
	const k = 2
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	samples := make([][]sample, 4)
	for r := range samples {
		readers.Add(1)
		go func() {
			defer readers.Done()
			shell := &core.Selection{}
			var last int64
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := tr.test[(r*17+n)%len(tr.test)]
				v := h.View()
				at := v.Provenance().Version
				if at < last {
					t.Errorf("reader %d: version %d after %d", r, at, last)
					return
				}
				sel := v.Fill(shell, q.String(), q.NumTerms(), core.Absolute, k)
				// Keep the first sight of every version and a thin slice of
				// the rest; the others only race.
				if (at != last || n%64 == 0) && len(samples[r]) < 400 {
					samples[r] = append(samples[r], sample{at, q, depict(sel)})
				} else {
					sel.BestView()
				}
				last = at
				sel.Release()
			}
		}()
	}

	writer := func(rounds int, write func(n int)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for n := 0; n < rounds; n++ {
				write(n)
			}
		}()
	}
	writer(12, func(int) { // reload
		wmu.Lock()
		defer wmu.Unlock()
		h.Install(deepCopy(tr.base), "reload")
		written()
		time.Sleep(time.Millisecond)
	})
	writer(40, func(n int) { // online refinement, database 0, an epoch at a time
		wmu.Lock()
		defer wmu.Unlock()
		for i := n * epoch; i < (n+1)*epoch; i++ {
			q := tr.test[i%len(tr.test)]
			if _, _, err := h.Observe(0, q.String(), q.NumTerms(), float64(i%9), true); err != nil {
				t.Error(err)
			}
		}
		written()
	})
	superseded := 0
	writer(60, func(n int) { // refresh: copy one ED out, commit it back
		dbIdx := 1 + n%(len(tr.names)-1)
		key := core.TypeKey{Terms: 1 + n%2, Band: core.EstimateBand(n % 3)}
		s, err := h.Serving(dbIdx, key)
		if err != nil {
			t.Error(err)
			return
		}
		if s.ED == nil {
			return
		}
		if err := s.ED.Observe(1, float64(n%5)); err != nil {
			t.Error(err)
			return
		}
		wmu.Lock()
		defer wmu.Unlock()
		switch _, err := h.Commit(s.Version, dbIdx, key, s.ED); {
		case errors.Is(err, refresh.ErrSuperseded):
			superseded++
		case err != nil:
			t.Error(err)
		default:
			written()
		}
	})
	writer(300, func(n int) { // drift windows only: holds the lock, changes no ED
		q := tr.test[n%len(tr.test)]
		if _, _, err := h.Observe(n%len(tr.names), q.String(), q.NumTerms(), float64(n%9), false); err != nil {
			t.Error(err)
		}
	})
	writers.Wait()
	close(stop)
	readers.Wait()

	checked, versions := 0, map[int64]bool{}
	for r, ss := range samples {
		for _, s := range ss {
			found := false
			for _, m := range copies[s.version] {
				if found = s.pic.same(fromScratch(m, s.q, k)); found {
					break
				}
			}
			if !found {
				t.Fatalf("reader %d, %q at version %d: the filled selection equals none of the %d states that version went through",
					r, s.q, s.version, len(copies[s.version]))
			}
			checked++
			versions[s.version] = true
		}
	}
	final := h.View().Provenance().Version
	t.Logf("%d selections checked over %d of %d versions; %d commits superseded", checked, len(versions), final, superseded)
	if checked == 0 || len(versions) < 2 {
		t.Errorf("the readers saw %d selections over %d versions: nothing was raced", checked, len(versions))
	}
}

// TestEpochKeepsVersion: refinement republishes rows inside a version,
// never as a new one, so however many epochs pass while a refresh probes,
// its Commit is not superseded; and the successor, derived with
// observations pending, serves no stale row.
func TestEpochKeepsVersion(t *testing.T) {
	tr := train(t)
	h := New(tr.names, false, nil)
	h.Install(deepCopy(tr.base), "train")
	var key core.TypeKey
	for key = range tr.base.DBs[1].EDs {
		break
	}
	s, err := h.Serving(1, key)
	if err != nil || s.ED == nil {
		t.Fatalf("Serving(1, %v) = %+v, %v", key, s, err)
	}
	fill := func(q queries.Query) picture {
		sel := h.View().Fill(nil, q.String(), q.NumTerms(), core.Absolute, 2)
		defer sel.Release()
		return depict(sel)
	}
	before := fill(tr.test[0])
	for n := 0; n < 1000; n++ { // 15 epochs and 40 observations
		q := tr.test[n%len(tr.test)]
		if _, _, err := h.Observe(n%len(tr.names), q.String(), q.NumTerms(), float64(n%9), true); err != nil {
			t.Fatal(err)
		}
	}
	if v := h.View().Provenance().Version; v != s.Version {
		t.Fatalf("1000 refining observations moved version %d to %d", s.Version, v)
	}
	if fill(tr.test[0]).same(before) {
		t.Error("1000 refining observations republished no row the first query reads")
	}
	if v, err := h.Commit(s.Version, 1, key, s.ED); err != nil || v != s.Version+1 {
		t.Fatalf("Commit across the epochs = %d, %v", v, err)
	}
	var model *core.Model
	h.Locked(func(ver *core.ModelVersion) error {
		model = deepCopy(ver.Model)
		return nil
	})
	for _, q := range tr.test[:40] {
		if !fill(q).same(fromScratch(model, q, 2)) {
			t.Errorf("%q on the committed version is not what its EDs derive from scratch", q)
		}
	}
}

// estimateCounter counts the estimates a model asks for.
type estimateCounter struct {
	estimate.Relevancy
	calls int
}

func (e *estimateCounter) Estimate(s *summary.Summary, q string) float64 {
	e.calls++
	return e.Relevancy.Estimate(s, q)
}

// TestObserveEstimatesOnce: one observation is one estimate under the
// lock, whether it goes to the ED, the drift window or both.
func TestObserveEstimatesOnce(t *testing.T) {
	tr := train(t)
	q := tr.test[0]
	for _, c := range []struct {
		name          string
		drift, refine bool
		want          int
	}{
		{"refinement and drift", true, true, 1},
		{"refinement", false, true, 1},
		{"drift", true, false, 1},
		{"neither", false, false, 0},
	} {
		h := New(tr.names, c.drift, nil)
		model := deepCopy(tr.base)
		rel := &estimateCounter{Relevancy: model.Rel}
		model.Rel = rel
		h.Install(model, "train")
		rel.calls = 0
		if _, _, err := h.Observe(0, q.String(), q.NumTerms(), 3, c.refine); err != nil {
			t.Fatal(err)
		}
		if rel.calls != c.want {
			t.Errorf("%s: %d estimates for one observation, want %d", c.name, rel.calls, c.want)
		}
	}
}

// TestObserveReturnsAlertUnlocked: the alert Observe returns is the
// caller's to deliver, with the host's lock released — a handler may
// read every ED under Locked and publish with Install. (Delivered from
// inside the critical section, the handler would never return.)
func TestObserveReturnsAlertUnlocked(t *testing.T) {
	tr := train(t)
	h := New(tr.names, true, nil)
	h.Install(deepCopy(tr.base), "train")

	handled := make(chan int64, 1)
	handle := func(a refresh.Alert) {
		if a.DBIdx != 0 || a.DB != tr.names[0] {
			t.Errorf("an alert from database 0's probes names %d (%s)", a.DBIdx, a.DB)
		}
		var observations int64
		h.Locked(func(ver *core.ModelVersion) error {
			for _, ed := range ver.Model.DBs[a.DBIdx].EDs {
				observations += ed.Observations()
			}
			return nil
		})
		h.Install(deepCopy(tr.base), "reload")
		handled <- observations
	}
	go func() {
		// Every probe answers a thousand times its estimate: whichever
		// key fills its window first fails its test.
		for n := 0; n < 50*len(tr.test); n++ {
			q := tr.test[n%len(tr.test)]
			alert, ok, err := h.Observe(0, q.String(), q.NumTerms(), 1e6, false)
			if err != nil {
				t.Error(err)
			}
			if ok {
				handle(alert)
				return
			}
		}
		t.Error("no drift alert from probes a thousand times their estimates")
		handled <- 0
	}()
	select {
	case n := <-handled:
		if p := h.View().Provenance(); n == 0 || p.Version != 2 || p.Source != "reload" {
			t.Errorf("the handler read %d observations and left version %d (%s)", n, p.Version, p.Source)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the alert handler never returned: it was called with the host's lock held")
	}
}

// TestCommitSuperseded: a refresh validated against a version an
// Install has since replaced is refused, and refusing it moves neither
// the serving pointer nor a drift reference (re-anchoring would empty
// the key's window).
func TestCommitSuperseded(t *testing.T) {
	tr := train(t)
	h := New(tr.names, true, nil)
	h.Install(deepCopy(tr.base), "train")

	// A tracked key of database 0, with something in its window.
	q := tr.test[0]
	if _, _, err := h.Observe(0, q.String(), q.NumTerms(), 3, false); err != nil {
		t.Fatal(err)
	}
	var key core.TypeKey
	for _, st := range h.DriftStatuses() {
		if st.DB == tr.names[0] && st.Samples == 1 {
			var err error
			if key, err = core.ParseTypeKey(st.QueryType); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := h.Serving(0, key)
	if err != nil || s.ED == nil {
		t.Fatalf("no tracked key took the observation: Serving(0, %v) = %+v, %v", key, s, err)
	}

	h.Install(deepCopy(tr.base), "reload")
	if _, _, err := h.Observe(0, q.String(), q.NumTerms(), 3, false); err != nil {
		t.Fatal(err)
	}
	before, windows := h.View(), h.DriftStatuses()
	if v, err := h.Commit(s.Version, 0, key, s.ED); !errors.Is(err, refresh.ErrSuperseded) {
		t.Fatalf("Commit against replaced version %d = %d, %v; want ErrSuperseded", s.Version, v, err)
	}
	if h.View() != before {
		t.Error("a refused commit moved the serving pointer")
	}
	if after := h.DriftStatuses(); !slices.Equal(after, windows) {
		t.Errorf("a refused commit touched the drift windows:\n%+v\n%+v", windows, after)
	}

	// The same commit against the version now serving goes through and
	// re-anchors exactly that key.
	s, err = h.Serving(0, key)
	if err != nil {
		t.Fatal(err)
	}
	v, err := h.Commit(s.Version, 0, key, s.ED)
	if err != nil || v != s.Version+1 || h.View().Provenance().Version != v {
		t.Fatalf("Commit against the serving version %d = %d, %v", s.Version, v, err)
	}
	for _, st := range h.DriftStatuses() {
		if st.DB == tr.names[0] && st.QueryType == key.String() && st.Samples != 0 {
			t.Errorf("the committed key's window kept %d samples", st.Samples)
		}
	}
}
