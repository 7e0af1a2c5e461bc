package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// goldenSnapshotPath pins the on-disk snapshot layout. The file is a
// real format-2 snapshot of the tiny test model; the test compares the
// JSON *structure* (every key path) of a freshly saved snapshot
// against it, so any change to the persisted layout fails CI unless
// FormatVersion was bumped and the golden regenerated deliberately.
const goldenSnapshotPath = "testdata/snapshot_format_v2.json"

// jsonShape collects every key path in a JSON document ("model.config
// .errorEdges[]", ...), ignoring values — timestamps and checksums
// differ run to run, the layout must not.
func jsonShape(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonShape(p, child, out)
		}
	case []any:
		for _, child := range x {
			jsonShape(prefix+"[]", child, out)
		}
	}
}

func snapshotShape(t *testing.T, data []byte) []string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	// The payload arrives as a nested object; DF term maps are content,
	// not layout, so collapse their keys.
	shape := make(map[string]bool)
	jsonShape("", doc, shape)
	out := make([]string, 0, len(shape))
	for p := range shape {
		if filepath.Dir(p) != p && isDFTermPath(p) {
			continue
		}
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// isDFTermPath filters the content summaries' per-term keys (corpus
// vocabulary, not snapshot layout).
func isDFTermPath(p string) bool {
	const dfPrefix = "model.summaries[].df."
	return len(p) > len(dfPrefix) && p[:len(dfPrefix)] == dfPrefix
}

// TestSnapshotGoldenFormat fails when the snapshot layout drifts
// without a format-version bump. Regenerate the golden (after bumping
// FormatVersion and keeping a decode path for the old format) with:
//
//	UPDATE_SNAPSHOT_GOLDEN=1 go test ./internal/core -run TestSnapshotGoldenFormat
func TestSnapshotGoldenFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := tinyModel(t).Save(path); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_SNAPSHOT_GOLDEN") != "" {
		if err := os.WriteFile(goldenSnapshotPath, current, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenSnapshotPath)
	}
	golden, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (generate with UPDATE_SNAPSHOT_GOLDEN=1): %v", err)
	}

	var env struct {
		Format int `json:"format"`
	}
	if err := json.Unmarshal(golden, &env); err != nil {
		t.Fatal(err)
	}
	gotShape, wantShape := snapshotShape(t, current), snapshotShape(t, golden)
	if !reflect.DeepEqual(gotShape, wantShape) {
		diff := shapeDiff(wantShape, gotShape)
		if env.Format == FormatVersion {
			t.Fatalf("the snapshot layout changed but core.FormatVersion is still %d.\n"+
				"Old snapshots in the wild must keep loading: bump FormatVersion, keep a decode\n"+
				"path for format %d, then regenerate the golden with\n"+
				"  UPDATE_SNAPSHOT_GOLDEN=1 go test ./internal/core -run TestSnapshotGoldenFormat\n%s",
				FormatVersion, FormatVersion, diff)
		}
		t.Fatalf("snapshot layout changed alongside a format bump to %d; regenerate the golden:\n"+
			"  UPDATE_SNAPSHOT_GOLDEN=1 go test ./internal/core -run TestSnapshotGoldenFormat\n%s",
			FormatVersion, diff)
	}
	if env.Format != FormatVersion {
		t.Fatalf("golden records format %d but this build writes %d; regenerate the golden", env.Format, FormatVersion)
	}
	// The golden file is a real snapshot of the current format, so this
	// build must load it — the backward-compat contract in one line.
	if _, err := LoadModel(goldenSnapshotPath); err != nil {
		t.Fatalf("golden snapshot no longer loads: %v", err)
	}
}

// shapeDiff renders the key-path difference between two shapes.
func shapeDiff(want, got []string) string {
	ws, gs := map[string]bool{}, map[string]bool{}
	for _, p := range want {
		ws[p] = true
	}
	for _, p := range got {
		gs[p] = true
	}
	var b []byte
	for _, p := range got {
		if !ws[p] {
			b = fmt.Appendf(b, "  + %s\n", p)
		}
	}
	for _, p := range want {
		if !gs[p] {
			b = fmt.Appendf(b, "  - %s\n", p)
		}
	}
	return "layout diff (+ new, - missing):\n" + string(b)
}
