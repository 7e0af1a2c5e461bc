package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaprobe/internal/estimate"
	"metaprobe/internal/summary"
)

// tinyModel hand-builds the smallest valid model, with bin edges that
// exercise the encoding's hard cases: infinities on both sides and a
// legitimate finite math.MaxFloat64 (which a numeric stand-in for
// infinity could not tell from +Inf).
func tinyModel(t *testing.T) *Model {
	t.Helper()
	cfg := Config{
		Classifier:      Classifier{Threshold: 100, MaxTerms: 2},
		ErrorEdges:      []float64{math.Inf(-1), -1, 0, 1, math.MaxFloat64, math.Inf(1)},
		absoluteEdges:   []float64{0, 1, 10, math.Inf(1)},
		UseBinMean:      true,
		MinObservations: 1,
	}
	ed, err := NewED(cfg.ErrorEdges, false, cfg.UseBinMean)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{{10, 12}, {10, 5}, {20, 60}, {8, 8}} {
		if err := ed.Observe(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	zed, err := NewED(cfg.absoluteEdges, true, cfg.UseBinMean)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 0, 3, 12} {
		if err := zed.Observe(0, v); err != nil {
			t.Fatal(err)
		}
	}
	pooled, err := NewED(cfg.ErrorEdges, false, cfg.UseBinMean)
	if err != nil {
		t.Fatal(err)
	}
	if err := pooled.Observe(10, 11); err != nil {
		t.Fatal(err)
	}
	return &Model{
		Cfg: cfg,
		Rel: estimate.NewDocFrequency(),
		Summaries: &summary.Set{Summaries: []*summary.Summary{{
			Database: "db-a", Size: 100, DocCount: 100,
			DF: map[string]int{"cancer": 10, "heart": 5},
		}}},
		DBs: []*DBModel{{
			Name: "db-a",
			EDs: map[TypeKey]*ED{
				{Terms: 1, Band: BandLow}:  ed,
				{Terms: 1, Band: BandZero}: zed,
			},
			Pooled: pooled,
		}},
	}
}

// TestInfEdgesRoundTrip: format-2 snapshots encode infinities as the
// strings "+Inf"/"-Inf", so a legitimate finite math.MaxFloat64 edge
// survives a round trip un-promoted — the ambiguity that motivated the
// format bump.
func TestInfEdgesRoundTrip(t *testing.T) {
	m := tinyModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Format != FormatVersion {
		t.Errorf("snapshot format %d, want %d", env.Format, FormatVersion)
	}
	if env.SavedAt.IsZero() || !strings.HasPrefix(env.Checksum, "sha256:") {
		t.Errorf("snapshot metadata incomplete: format %d, saved %v, checksum %q", env.Format, env.SavedAt, env.Checksum)
	}
	edges := loaded.Cfg.ErrorEdges
	if !math.IsInf(edges[0], -1) {
		t.Errorf("edge 0 = %v, want -Inf", edges[0])
	}
	if edges[4] != math.MaxFloat64 {
		t.Errorf("edge 4 = %v, want MaxFloat64 kept finite", edges[4])
	}
	if !math.IsInf(edges[5], 1) {
		t.Errorf("edge 5 = %v, want +Inf", edges[5])
	}
	// The EDs' own histogram edges round-trip the same way.
	hist := loaded.DBs[0].EDs[TypeKey{Terms: 1, Band: BandLow}].Hist
	if !math.IsInf(hist.Edges[0], -1) || hist.Edges[4] != math.MaxFloat64 || !math.IsInf(hist.Edges[5], 1) {
		t.Errorf("ED edges mangled: %v", hist.Edges)
	}
	// The file itself must never contain a bare MaxFloat64 standing in
	// for infinity: the only MaxFloat64 occurrences are our real edge.
	if !strings.Contains(string(data), `"+Inf"`) || !strings.Contains(string(data), `"-Inf"`) {
		t.Error("snapshot does not use string-encoded infinities")
	}
}

// TestBareModelObjectRefused: a model payload without its envelope (the
// layout written before format 2) carries no checksum, so any edit that
// leaves valid JSON would load unverified. LoadModel refuses it by its
// format number before reading the model.
func TestBareModelObjectRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tinyModel(t).Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, env.Model, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModel(path)
	if err == nil {
		t.Fatal("a bare model object was accepted")
	}
	if want := fmt.Sprintf("snapshot format 0; this build reads %d", FormatVersion); !strings.Contains(err.Error(), want) {
		t.Errorf("refusal %q does not name the file's format (want %q)", err, want)
	}
}

// TestSaveRejectsNaNEdges: NaN has no unambiguous encoding; Save must
// fail loudly rather than write a snapshot that cannot load.
func TestSaveRejectsNaNEdges(t *testing.T) {
	m := tinyModel(t)
	m.Cfg.ErrorEdges = append([]float64(nil), m.Cfg.ErrorEdges...)
	m.Cfg.ErrorEdges[2] = math.NaN()
	if err := m.Save(filepath.Join(t.TempDir(), "m.json")); err == nil {
		t.Error("saving NaN edges must fail")
	}
}

// TestCrashSafety simulates the two crash windows of a snapshot write
// and checks that neither can lose the previous good snapshot.
func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	m := tinyModel(t)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash window 1: between temp-file write and rename. The temp file
	// (possibly truncated) is left behind; the snapshot at path is
	// untouched and must keep loading.
	leftover := filepath.Join(dir, ".model.json.tmp-12345")
	if err := os.WriteFile(leftover, good[:len(good)/3], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err != nil {
		t.Fatalf("leftover temp file broke the good snapshot: %v", err)
	}

	// Crash window 2: a torn in-place write (what Save's rename
	// protocol prevents). A truncated snapshot must be rejected with a
	// diagnosis, not silently half-loaded.
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(torn); err == nil {
		t.Error("truncated snapshot must fail to load")
	} else if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("truncation error should say so: %v", err)
	}

	// Flipping payload bytes without updating the checksum is caught.
	corrupt := strings.Replace(string(good), `"db-a"`, `"db-x"`, 1)
	corruptPath := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corruptPath, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(corruptPath); err == nil {
		t.Error("checksum-failing snapshot must fail to load")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corruption error should name the checksum: %v", err)
	}

	// An envelope with no payload is diagnosed, not nil-dereferenced.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"format":2,"checksum":"sha256:00"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(empty); err == nil {
		t.Error("payload-less envelope must fail to load")
	}

	// A future format is refused by name, so operators see a version
	// skew instead of a JSON soup error.
	future := filepath.Join(dir, "future.json")
	if err := os.WriteFile(future, []byte(`{"format":99,"model":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(future); err == nil {
		t.Error("future-format snapshot must fail to load")
	} else if !strings.Contains(err.Error(), "99") || !strings.Contains(err.Error(), fmt.Sprint(FormatVersion)) {
		t.Errorf("format-skew error should name both versions: %v", err)
	}

	// Saving over an existing snapshot replaces it atomically and works
	// repeatedly (the rename path, not a create-once path).
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err != nil {
		t.Fatal(err)
	}
}
