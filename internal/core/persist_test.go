package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	model, _, test := buildTrainedModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Rel.Name() != model.Rel.Name() {
		t.Errorf("relevancy %q != %q", loaded.Rel.Name(), model.Rel.Name())
	}
	if loaded.Cfg.Classifier != model.Cfg.Classifier {
		t.Errorf("classifier %+v != %+v", loaded.Cfg.Classifier, model.Cfg.Classifier)
	}
	if len(loaded.DBs) != len(model.DBs) {
		t.Fatalf("db count %d != %d", len(loaded.DBs), len(model.DBs))
	}
	// The infinite overflow edge must survive the round trip.
	last := loaded.Cfg.ErrorEdges[len(loaded.Cfg.ErrorEdges)-1]
	if !math.IsInf(last, 1) {
		t.Errorf("overflow edge decoded as %v, want +Inf", last)
	}
	// The loaded model must produce identical RDs on unseen queries.
	for _, q := range test[:40] {
		for i := range model.DBs {
			a, rhatA := model.rdFor(i, q.String(), q.NumTerms())
			b, rhatB := loaded.rdFor(i, q.String(), q.NumTerms())
			if rhatA != rhatB {
				t.Fatalf("estimates differ for %q on db %d: %v vs %v", q, i, rhatA, rhatB)
			}
			if a.Len() != b.Len() {
				t.Fatalf("RD supports differ for %q on db %d", q, i)
			}
			for vi := 0; vi < a.Len(); vi++ {
				if math.Abs(a.Value(vi)-b.Value(vi)) > 1e-12 || math.Abs(a.Prob(vi)-b.Prob(vi)) > 1e-12 {
					t.Fatalf("RDs differ for %q on db %d: %v vs %v", q, i, a, b)
				}
			}
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadModel(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must fail")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bad); err == nil {
		t.Error("malformed JSON must fail")
	}
	// Sealed payloads reach the model checks behind the checksum.
	for payload, want := range map[string]string{
		`{"relevancy":"doc-frequency","dbs":[]}`:                                      "has no databases",
		`{"relevancy":"martian","dbs":[{"name":"a"}],"summaries":[{"database":"a"}]}`: `unknown relevancy "martian"`,
	} {
		path := filepath.Join(dir, "sealed.json")
		if err := os.WriteFile(path, sealSnapshot(t, []byte(payload)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %q", payload, err, want)
		}
	}
}

func TestObserveProbeRefinesModel(t *testing.T) {
	model, tb, test := buildTrainedModel(t)
	q := test[0]
	dbIdx := 0
	before, _ := model.rdFor(dbIdx, q.String(), q.NumTerms())

	// Feed many consistent observations far from the trained errors:
	// the RD must shift toward them.
	rhat := model.Rel.Estimate(model.Summaries.Summaries[dbIdx], q.String())
	if rhat <= 0 {
		// Pick a query with a positive estimate for this database.
		for _, cand := range test {
			rhat = model.Rel.Estimate(model.Summaries.Summaries[dbIdx], cand.String())
			if rhat > 0 {
				q = cand
				before, _ = model.rdFor(dbIdx, q.String(), q.NumTerms())
				break
			}
		}
	}
	if rhat <= 0 {
		t.Skip("no positive-estimate query found")
	}
	target := rhat * 3 // +200% error
	for i := 0; i < 5000; i++ {
		if err := model.observeProbe(dbIdx, q.String(), q.NumTerms(), target); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := model.rdFor(dbIdx, q.String(), q.NumTerms())
	if math.Abs(after.Mean()-target) >= math.Abs(before.Mean()-target) {
		t.Errorf("RD mean did not converge toward the observed value %v: before %v, after %v",
			target, before.Mean(), after.Mean())
	}
	if math.Abs(after.Mean()-target) > 0.2*target {
		t.Errorf("RD mean %v still far from the observed value %v after 5000 observations", after.Mean(), target)
	}
	// Bad indices and inputs fail cleanly.
	if err := model.observeProbe(-1, "x", 1, 1); err == nil {
		t.Error("negative index must fail")
	}
	if err := model.observeProbe(len(model.DBs), "x", 1, 1); err == nil {
		t.Error("out-of-range index must fail")
	}
	if err := model.observeProbe(0, q.String(), q.NumTerms(), -1); err == nil {
		t.Error("negative observation must fail")
	}
	_ = tb
}
