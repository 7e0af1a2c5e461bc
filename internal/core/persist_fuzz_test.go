package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sealSnapshot wraps a model payload in a format-2 envelope with the
// checksum that payload really has, so a seed's payload can be bent
// without tripping the checksum before the decoder sees it.
func sealSnapshot(t testing.TB, payload []byte) []byte {
	t.Helper()
	sum, err := checksum(payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snapshotEnvelope{Format: FormatVersion, Checksum: sum, Model: payload})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzLoadModel: a snapshot file is untrusted bytes (an operator's
// reload, a half-written copy, an older build's output). LoadModel must
// answer every input with a model or an error — never a panic. What it
// accepts must be a format-2 envelope, as Save writes, and the model
// must survive Save and LoadModel unchanged.
func FuzzLoadModel(f *testing.F) {
	golden, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		f.Fatal(err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(golden, &env); err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])                                             // truncated copy
	f.Add(bytes.Replace(golden, []byte(`"sha256:b`), []byte(`"sha256:c`), 1)) // checksum mismatch
	// Edge strings: the "Inf" alias of "+Inf" loads, any other string is
	// refused.
	f.Add(sealSnapshot(f, bytes.ReplaceAll(env.Model, []byte(`"+Inf"`), []byte(`"Inf"`))))
	f.Add(sealSnapshot(f, bytes.ReplaceAll(env.Model, []byte(`"-Inf"`), []byte(`"NaN"`))))
	// What the payload may not choose: a key space sized by the file, a
	// query type the classifier never produces, a negative count.
	for _, bend := range [][2]string{
		{`"maxTerms": 2`, `"maxTerms": 2000`},
		{`"terms": 1`, `"terms": 3`},
		{`"band": 1`, `"band": 3`},
		{`"counts": [
       2,`, `"counts": [
       -2,`},
	} {
		bent := bytes.Replace(env.Model, []byte(bend[0]), []byte(bend[1]), 1)
		if bytes.Equal(bent, env.Model) {
			f.Fatalf("the golden has no %s to bend", bend[0])
		}
		f.Add(sealSnapshot(f, bent))
	}
	// A file in the layout written before format 2, which must be
	// refused: the bare model object with ±Inf written as ±MaxFloat64
	// (so the golden's finite MaxFloat64 edge becomes 2 first).
	sentinel := []byte(fmt.Sprint(math.MaxFloat64))
	legacy := bytes.ReplaceAll(env.Model, sentinel, []byte("2"))
	legacy = bytes.ReplaceAll(legacy, []byte(`"+Inf"`), sentinel)
	legacy = bytes.ReplaceAll(legacy, []byte(`"-Inf"`), append([]byte("-"), sentinel...))
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(path)
		if err != nil {
			return
		}
		var got snapshotEnvelope
		if err := json.Unmarshal(data, &got); err != nil || got.Format != FormatVersion {
			t.Fatalf("LoadModel accepted a file that is not a format-%d envelope (format %d, %v)", FormatVersion, got.Format, err)
		}
		again := filepath.Join(dir, "again.json")
		if err := m.Save(again); err != nil {
			t.Fatalf("LoadModel accepted a model Save refuses: %v", err)
		}
		m2, err := LoadModel(again)
		if err != nil {
			t.Fatalf("LoadModel accepted a model whose own snapshot does not load: %v", err)
		}
		if !reflect.DeepEqual(m.encode(), m2.encode()) {
			t.Fatalf("an accepted model changed across Save and LoadModel:\n%+v\n%+v", m.encode(), m2.encode())
		}
	})
}
