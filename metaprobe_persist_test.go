package metaprobe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFacadeSaveAndReloadModel(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := ms.SaveModel(path); err != nil {
		t.Fatal(err)
	}

	// Rebuild the metasearcher from the file (no re-training).
	dbs := make([]Database, ms.tb.Len())
	for i := range dbs {
		dbs[i] = ms.tb.DB(i)
	}
	loaded, err := NewFromModel(dbs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Trained() {
		t.Fatal("loaded metasearcher is not trained")
	}
	// Same selections as the original on a sample of queries.
	for _, q := range test[:20] {
		a, ea, err := ms.Select(q, 2, Absolute)
		if err != nil {
			t.Fatal(err)
		}
		b, eb, err := loaded.Select(q, 2, Absolute)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] || ea != eb {
			t.Fatalf("selection diverged for %q: %v@%v vs %v@%v", q, a, ea, b, eb)
		}
	}

	// Mismatched databases are rejected.
	if _, err := NewFromModel(dbs[:3], path, nil); err == nil {
		t.Error("database-count mismatch must fail")
	}
	swapped := append([]Database(nil), dbs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := NewFromModel(swapped, path, nil); err == nil {
		t.Error("database-name mismatch must fail")
	}
	if _, err := NewFromModel(dbs, filepath.Join(t.TempDir(), "none.json"), nil); err == nil {
		t.Error("missing model file must fail")
	}
}

func TestSaveModelUntrained(t *testing.T) {
	db := NewLocalDatabase("d", map[string]string{"a": "text here"})
	sums, err := ExactSummaries([]Database{db})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := New([]Database{db}, sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.SaveModel(filepath.Join(t.TempDir(), "m.json")); err == nil {
		t.Error("saving an untrained model must fail")
	}
}

// TestOnlineRefinement verifies that probes feed the model when the
// option is on: the per-type observation counts grow during selection.
func TestOnlineRefinement(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	ms.cfg.OnlineRefinement = true

	countObservations := func() int64 {
		var total int64
		for _, dm := range ms.serving().DBs {
			for _, ed := range dm.EDs {
				total += ed.Observations()
			}
		}
		return total
	}
	before := countObservations()
	var probes int
	for _, q := range test {
		res, err := ms.SelectWithCertainty(q, 1, Absolute, 0.99, 2)
		if err != nil {
			t.Fatal(err)
		}
		probes += res.Probes
		if probes > 10 {
			break
		}
	}
	if probes == 0 {
		t.Skip("no query required probing; cannot exercise refinement")
	}
	after := countObservations()
	if after != before+int64(probes) {
		t.Errorf("observations grew by %d for %d probes", after-before, probes)
	}
}

// TestDocSimilarityPipeline runs the alternative relevancy definition
// end to end: training, selection and probing under best-document
// cosine relevancy.
func TestDocSimilarityPipeline(t *testing.T) {
	onco := NewLocalDatabase("onco", map[string]string{
		"o1": "breast cancer screening", "o2": "breast cancer therapy",
		"o3": "lung cancer staging", "o4": "tumor biopsy results",
	})
	cardio := NewLocalDatabase("cardio", map[string]string{
		"c1": "heart attack response", "c2": "blood pressure control",
		"c3": "cardiac surgery recovery",
	})
	dbs := []Database{onco, cardio}
	sums, err := ExactSummaries(dbs)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := New(dbs, sums, &Config{
		Relevancy: DocSimilarityRelevancy(),
		Model:     SimilarityModelConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	train := []string{
		"breast cancer", "cancer therapy", "heart attack", "blood pressure",
		"tumor biopsy", "cardiac surgery", "cancer staging", "pressure control",
		"breast screening", "attack response",
	}
	if err := ms.Train(train); err != nil {
		t.Fatal(err)
	}
	set, certainty, err := ms.Select("breast cancer", 1, Absolute)
	if err != nil {
		t.Fatal(err)
	}
	if set[0] != "onco" {
		t.Errorf("similarity selection picked %v for 'breast cancer'", set)
	}
	if certainty <= 0 || certainty > 1 {
		t.Errorf("certainty %v out of range", certainty)
	}
	res, err := ms.SelectWithCertainty("heart attack", 1, Absolute, 0.9, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Databases[0] != "cardio" {
		t.Errorf("similarity APro picked %v for 'heart attack'", res.Databases)
	}
}

func TestExplain(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	expl, err := ms.Explain(test[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl) != len(ms.Databases()) {
		t.Fatalf("explanations for %d of %d databases", len(expl), len(ms.Databases()))
	}
	var totalMembership float64
	for _, e := range expl {
		if e.Database == "" || e.QueryType == "" {
			t.Errorf("incomplete explanation %+v", e)
		}
		if e.MembershipProb < 0 || e.MembershipProb > 1 {
			t.Errorf("membership %v out of range", e.MembershipProb)
		}
		if e.Estimate < 0 || e.ExpectedRelevancy < 0 {
			t.Errorf("negative relevancy fields %+v", e)
		}
		totalMembership += e.MembershipProb
	}
	// Membership probabilities over all databases sum to exactly k.
	if totalMembership < 1.99 || totalMembership > 2.01 {
		t.Errorf("membership probabilities sum to %v, want 2 (k)", totalMembership)
	}
	// Untrained metasearchers cannot explain.
	db := NewLocalDatabase("d", map[string]string{"a": "words here"})
	sums, _ := ExactSummaries([]Database{db})
	fresh, _ := New([]Database{db}, sums, nil)
	if _, err := fresh.Explain("words", 1); err == nil {
		t.Error("untrained Explain must fail")
	}
}

// TestMetasearchSnippets: fused results from fetchable databases carry
// query-centered snippets.
func TestMetasearchSnippets(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	for _, q := range test {
		items, _, err := ms.Metasearch(q, 2, Partial, 0.7, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if it.Snippet == "" {
				t.Fatalf("item %s/%s missing snippet", it.Database, it.Doc.ID)
			}
		}
		if len(items) > 0 {
			return
		}
	}
	t.Error("no query produced results")
}

// TestEstimatesFollowReload: a reloaded snapshot brings its own content
// summaries, and everything that estimates must read those — Estimates
// and SelectBaseline (the server's never-fail floor) as well as the
// selections. The snapshot here was trained over re-sampled summaries of
// the same databases, so the constructor's exact ones answer differently.
func TestEstimatesFollowReload(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	dbs := ms.tb.Databases()
	sampled, err := SampleSummaries(dbs, strings.Fields(strings.Join(test, " ")), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := New(dbs, sampled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Train(test); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resampled.json")
	if err := owner.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	if err := ms.ReloadModel(path); err != nil {
		t.Fatal(err)
	}

	const k = 2
	moved := 0
	for _, q := range test {
		est := ms.Estimates(q)
		ex, err := ms.Explain(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ex {
			if est[i] != e.Estimate {
				t.Errorf("%q, %s: Estimates says %v, the serving version selects with %v", q, e.Database, est[i], e.Estimate)
			}
			if est[i] != ms.rel.Estimate(ms.sums.Summaries[i], q) {
				moved++
			}
		}
		if got, want := ms.SelectBaseline(q, k), owner.SelectBaseline(q, k); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: SelectBaseline %v, the snapshot's own summaries pick %v", q, got, want)
		}
	}
	if moved == 0 {
		t.Error("the re-sampled summaries estimate exactly like the exact ones: the reload changed nothing to follow")
	}
}

// TestReloadRejectsBadSnapshot: a snapshot ReloadModel refuses — cut
// short, altered under its checksum, without its envelope, carrying an
// edge no histogram has, asking for a key space only the file could
// want, or describing other databases — leaves the serving version and
// its answers exactly as they were. Each refusal comes from its own
// check: the bent payloads are sealed with the checksum they really
// have, so only the check named can stop them.
func TestReloadRejectsBadSnapshot(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := ms.SaveModel(good); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Format int             `json:"format"`
		Model  json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(snapshot, &env); err != nil {
		t.Fatal(err)
	}
	sealed := func(old, new string) []byte {
		bent := bytes.Replace(env.Model, []byte(old), []byte(new), 1)
		if bytes.Equal(bent, env.Model) {
			t.Fatalf("the snapshot has no %s to bend", old)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, bent); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(compact.Bytes())
		data, err := json.Marshal(map[string]any{
			"format":   env.Format,
			"checksum": "sha256:" + hex.EncodeToString(sum[:]),
			"model":    json.RawMessage(bent),
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	bad := map[string]struct {
		data []byte
		want string // in the refusal
	}{
		"truncated":         {snapshot[:len(snapshot)/2], "truncated or corrupt"},
		"checksum mismatch": {bytes.Replace(snapshot, []byte(`"threshold": 100`), []byte(`"threshold": 101`), 1), "checksum mismatch"},
		"no envelope":       {env.Model, "snapshot format 0"},
		"edge string":       {sealed(`"+Inf"`, `"NaN"`), `unknown value "NaN"`},
		"key space":         {sealed(`"maxTerms": 4`, `"maxTerms": 4000`), "maxTerms 4000 outside"},
		"other database":    {sealed(`"name": "`+ms.Databases()[0]+`"`, `"name": "elsewhere"`), `the model expects "elsewhere"`},
		"other relevancy":   {sealed(`"relevancy": "doc-frequency"`, `"relevancy": "doc-similarity"`), `model uses relevancy "doc-similarity"`},
		"empty":             {nil, "truncated or corrupt"},
	}

	q := test[0]
	version := ms.ModelInfo().Version
	want, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range bad {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ms.ReloadModel(path); err == nil {
			t.Errorf("%s: the snapshot was accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused by %q, not by the check that says %q", name, err, c.want)
		}
		if v := ms.ModelInfo().Version; v != version {
			t.Errorf("%s: a refused reload left version %d, before %d", name, v, version)
		}
		got, err := ms.SelectWithCertainty(q, 2, Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %q answers %+v after a refused reload, before %+v", name, q, got, want)
		}
	}
	if err := ms.ReloadModel(good); err != nil || ms.ModelInfo().Version != version+1 {
		t.Errorf("the good snapshot: %v, version %d", err, ms.ModelInfo().Version)
	}
}
