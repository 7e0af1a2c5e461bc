package metaprobe

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/queries"
	"metaprobe/internal/stats"
)

// serving returns the serving model, nil before training, for tests that
// look inside it. The pointer outlives the host's lock: read its EDs only
// while nothing probes with OnlineRefinement on.
func (m *Metasearcher) serving() *core.Model {
	var model *core.Model
	m.host.Locked(func(ver *core.ModelVersion) error {
		if ver != nil {
			model = ver.Model
		}
		return nil
	})
	return model
}

// buildTestMetasearcher wires 6 generated health databases through the
// public API with a trained error model.
func buildTestMetasearcher(t testing.TB) (*Metasearcher, []string) {
	return buildTestMetasearcherWith(t, nil, nil)
}

// buildTestMetasearcherWith is buildTestMetasearcher with a custom
// Config and an optional per-database wrapper (applied after summaries
// are built, so summaries always reflect the unwrapped content).
func buildTestMetasearcherWith(t testing.TB, cfg *Config, wrap func(i int, db Database) Database) (*Metasearcher, []string) {
	t.Helper()
	return buildTestMetasearcherOn(t, corpus.HealthTestbed(0.01)[:6], cfg, wrap)
}

// buildTestMetasearcherOn is buildTestMetasearcherWith over the given
// health-world database specs.
func buildTestMetasearcherOn(t testing.TB, specs []corpus.DatabaseSpec, cfg *Config, wrap func(i int, db Database) Database) (*Metasearcher, []string) {
	t.Helper()
	world := corpus.HealthWorld()
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
	if wrap != nil {
		for i := range dbs {
			dbs[i] = wrap(i, dbs[i])
		}
	}
	ms, err := New(dbs, sums, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := gen.TrainTest(stats.NewRNG(4), 150, 150, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	trainStrs := make([]string, len(train))
	for i, q := range train {
		trainStrs[i] = q.String()
	}
	if err := ms.Train(trainStrs); err != nil {
		t.Fatal(err)
	}
	testStrs := make([]string, len(test))
	for i, q := range test {
		testStrs[i] = q.String()
	}
	return ms, testStrs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Error("no databases must fail")
	}
	db := NewLocalDatabase("d", map[string]string{"a": "hello world"})
	if _, err := New([]Database{db}, nil, nil); err == nil {
		t.Error("summary count mismatch must fail")
	}
	if _, err := New([]Database{db}, []*Summary{nil}, nil); err == nil {
		t.Error("nil summary must fail")
	}
	bad := &Summary{} // fails validation (no name)
	if _, err := New([]Database{db}, []*Summary{bad}, nil); err == nil {
		t.Error("invalid summary must fail")
	}
}

func TestUntrainedGuards(t *testing.T) {
	db := NewLocalDatabase("d", map[string]string{"a": "breast cancer research"})
	sums, err := ExactSummaries([]Database{db})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := New([]Database{db}, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Trained() {
		t.Error("fresh metasearcher claims to be trained")
	}
	// Baseline works untrained.
	if got := ms.SelectBaseline("breast cancer", 1); len(got) != 1 || got[0] != "d" {
		t.Errorf("baseline = %v", got)
	}
	// RD-based selection requires training.
	if _, _, err := ms.Select("breast cancer", 1, Absolute); err == nil {
		t.Error("untrained Select must fail")
	}
	if _, err := ms.SelectWithCertainty("breast cancer", 1, Absolute, 0.9, -1); err == nil {
		t.Error("untrained SelectWithCertainty must fail")
	}
	if err := ms.Train([]string{""}); err == nil {
		t.Error("empty training query must fail")
	}
}

func TestSelectPipeline(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	if !ms.Trained() {
		t.Fatal("not trained")
	}
	if n := len(ms.Databases()); n != 6 {
		t.Fatalf("databases = %d", n)
	}
	for _, q := range test[:10] {
		ests := ms.Estimates(q)
		if len(ests) != 6 {
			t.Fatalf("estimates = %v", ests)
		}
		base := ms.SelectBaseline(q, 2)
		if len(base) != 2 {
			t.Fatalf("baseline = %v", base)
		}
		set, certainty, err := ms.Select(q, 2, Partial)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != 2 || certainty < 0 || certainty > 1 {
			t.Errorf("Select(%q) = %v at %v", q, set, certainty)
		}
		res, err := ms.SelectWithCertainty(q, 1, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Databases) != 1 {
			t.Errorf("certainty selection = %+v", res)
		}
		if res.Reached && res.Certainty < 0.9 {
			t.Errorf("reached but certainty %v < 0.9", res.Certainty)
		}
		if !res.Reached && res.Probes < 6-1 {
			// Without reaching t, every probeable database must have
			// been tried (none fail in this testbed).
			t.Errorf("gave up after %d probes: %+v", res.Probes, res)
		}
	}
}

// TestCertaintyIsCalibrated verifies the paper's interpretation of the
// certainty level (end of Section 3.3): among answers returned with
// certainty ≥ t, roughly a ≥t fraction should be correct.
func TestCertaintyIsCalibrated(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	var returned, correct float64
	const threshold = 0.8
	for _, q := range test {
		res, err := ms.SelectWithCertainty(q, 1, Absolute, threshold, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached {
			continue
		}
		// Ground truth by probing everything.
		ests := make([]float64, len(ms.Databases()))
		for i := range ests {
			v, err := ms.rel.Probe(ms.tb.DB(i), q)
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = v
		}
		golden := ms.names([]int{rankTop1(ests)})
		returned++
		if golden[0] == res.Databases[0] {
			correct++
		}
	}
	if returned < 20 {
		t.Fatalf("only %v answers reached the threshold; test underpowered", returned)
	}
	rate := correct / returned
	if rate < threshold-0.12 {
		t.Errorf("calibration: %v of answers correct, promised ≥ %v", rate, threshold)
	}
}

func rankTop1(scores []float64) int {
	best := 0
	for i, v := range scores {
		if v > scores[best] {
			best = i
		}
	}
	return best
}

func TestMetasearchEndToEnd(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	for _, q := range test {
		items, selRes, err := ms.Metasearch(q, 2, Partial, 0.7, 10)
		if err != nil {
			t.Fatal(err)
		}
		if selRes == nil || len(selRes.Databases) != 2 {
			t.Fatalf("selection = %+v", selRes)
		}
		seen := map[string]bool{}
		for _, it := range items {
			key := it.Database + "/" + it.Doc.ID
			if seen[key] {
				t.Fatalf("duplicate fused result %s", key)
			}
			seen[key] = true
			if it.Database != selRes.Databases[0] && it.Database != selRes.Databases[1] {
				t.Fatalf("result from unselected database %s", it.Database)
			}
		}
		if len(items) > 0 {
			return // found a query with results; pipeline verified
		}
	}
	t.Error("no test query produced any fused results")
}

func TestHTTPDatabaseThroughFacade(t *testing.T) {
	local := NewLocalDatabase("remote", map[string]string{
		"d1": "breast cancer research", "d2": "cancer treatment", "d3": "healthy diet",
	})
	srv := httptest.NewServer(hidden.NewServer(local))
	defer srv.Close()

	db := NewHTTPDatabase("remote", srv.URL)
	res, err := db.SearchContext(context.Background(), "cancer", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchCount != 2 {
		t.Errorf("MatchCount = %d, want 2", res.MatchCount)
	}

	// Sampled summaries through the remote interface.
	sums, err := SampleSummaries([]Database{db}, []string{"cancer", "diet"}, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].DocCount == 0 || !sums[0].Sampled {
		t.Errorf("sampled summary = %+v", sums[0])
	}
}

func TestSelectParameterValidation(t *testing.T) {
	ms, _ := buildTestMetasearcher(t)
	if _, _, err := ms.Select("cancer", 0, Absolute); err == nil {
		t.Error("k=0 must fail")
	}
	if _, _, err := ms.Select("cancer", 100, Absolute); err == nil {
		t.Error("k>n must fail")
	}
	if _, err := ms.SelectWithCertainty("cancer", 1, Absolute, 1.7, -1); err == nil {
		t.Error("t>1 must fail")
	}
}

func TestExactSummariesRejectsRemote(t *testing.T) {
	db := NewHTTPDatabase("r", "http://127.0.0.1:1")
	if _, err := ExactSummaries([]Database{db}); err == nil {
		t.Error("remote database must be rejected")
	}
}

// TestNewLocalDatabaseLeavesNoSpareCapacity: NewLocalDatabase compacts
// its index, so no posting list has room to grow, and every document
// fetches back the text it was given.
func TestNewLocalDatabaseLeavesNoSpareCapacity(t *testing.T) {
	docs := map[string]string{}
	for i := 0; i < 50; i++ {
		docs[fmt.Sprintf("doc%02d", i)] = fmt.Sprintf("term%d cancer  health ", i%7)
	}
	local := NewLocalDatabase("d", docs).(*hidden.Local)
	it := reflect.ValueOf(local.Index()).Elem().FieldByName("postings").MapRange()
	for it.Next() {
		if data := it.Value().FieldByName("data"); data.Cap() != data.Len() {
			t.Errorf("term %v: capacity %d for %d bytes", it.Key(), data.Cap(), data.Len())
		}
	}
	for id, text := range docs {
		if got, err := local.Fetch(context.Background(), id); err != nil || got != text {
			t.Errorf("Fetch(%s) = %q, %v; want %q", id, got, err, text)
		}
	}
}

func TestNewLocalDatabaseDeterminism(t *testing.T) {
	docs := map[string]string{}
	for i := 0; i < 50; i++ {
		docs[fmt.Sprintf("doc%02d", i)] = fmt.Sprintf("term%d cancer health", i%7)
	}
	a := NewLocalDatabase("a", docs)
	b := NewLocalDatabase("b", docs)
	ra, _ := a.SearchContext(context.Background(), "cancer", 5)
	rb, _ := b.SearchContext(context.Background(), "cancer", 5)
	if ra.MatchCount != rb.MatchCount || len(ra.Docs) != len(rb.Docs) {
		t.Fatal("construction not deterministic")
	}
	for i := range ra.Docs {
		if ra.Docs[i].ID != rb.Docs[i].ID {
			t.Fatal("ranking not deterministic across constructions")
		}
	}
	if !strings.HasPrefix(ra.Docs[0].ID, "doc") {
		t.Errorf("unexpected doc ID %q", ra.Docs[0].ID)
	}
}
