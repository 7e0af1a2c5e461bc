package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"metaprobe/internal/estimate"
	"metaprobe/internal/summary"
)

// Model training is the expensive, offline part of the pipeline
// (Section 4: thousands of probe queries per database). This file
// serializes a trained model so a metasearcher can train once and
// reload at startup — or hot-reload mid-flight.
//
// Snapshot format. A snapshot is an envelope
//
//	{"format": 2, "checksum": "sha256:…", "savedAt": …, "model": {…}}
//
// whose checksum covers the model payload bytes, written atomically
// (temp file in the target directory + fsync + rename) so a crash
// mid-write can never clobber the previous snapshot, and loaded with
// checksum verification so a truncated or bit-rotted file fails with a
// clear error instead of producing a silently wrong model. LoadModel
// reads exactly what Save writes: any other envelope format, a bare
// model object included, is refused by number.
//
// The relevancy definition is stored by name and resolved on load.

// FormatVersion is the snapshot envelope format written by Save. Bump
// it whenever the persisted model schema changes shape — the golden
// snapshot test enforces that rule.
const FormatVersion = 2

// relevancyFactory resolves a persisted relevancy name to its
// constructor.
func relevancyFactory(name string) (func() estimate.Relevancy, bool) {
	switch name {
	case "doc-frequency":
		return func() estimate.Relevancy { return estimate.NewDocFrequency() }, true
	case "doc-similarity":
		return func() estimate.Relevancy { return estimate.NewDocSimilarity() }, true
	}
	return nil, false
}

// snapshotEnvelope is the on-disk frame around the model payload.
type snapshotEnvelope struct {
	Format   int             `json:"format"`
	Checksum string          `json:"checksum"`
	SavedAt  time.Time       `json:"savedAt"`
	Model    json.RawMessage `json:"model"`
}

// jsonModel is the persisted form of a Model.
type jsonModel struct {
	Relevancy string             `json:"relevancy"`
	Config    jsonConfig         `json:"config"`
	Summaries []*summary.Summary `json:"summaries"`
	DBs       []jsonDBModel      `json:"dbs"`
}

type jsonConfig struct {
	Threshold       float64  `json:"threshold"`
	MaxTerms        int      `json:"maxTerms"`
	ErrorEdges      edgeList `json:"errorEdges"`
	AbsoluteEdges   edgeList `json:"absoluteEdges"`
	UseBinMean      bool     `json:"useBinMean"`
	MinObservations int64    `json:"minObservations"`
}

type jsonDBModel struct {
	Name   string   `json:"name"`
	EDs    []jsonED `json:"eds"`
	Pooled *jsonED  `json:"pooled"`
}

type jsonED struct {
	Terms    int       `json:"terms"`
	Band     int       `json:"band"`
	Absolute bool      `json:"absolute"`
	Edges    edgeList  `json:"edges"`
	Counts   []int64   `json:"counts"`
	Sums     []float64 `json:"sums"`
}

// edgeList carries histogram bin edges through JSON with infinities
// encoded unambiguously as the strings "+Inf" / "-Inf" (JSON has no
// Inf literal). Finite values — math.MaxFloat64 included — round-trip
// exactly as numbers.
type edgeList []float64

// MarshalJSON implements json.Marshaler.
func (e edgeList) MarshalJSON() ([]byte, error) {
	items := make([]any, len(e))
	for i, v := range e {
		switch {
		case math.IsInf(v, 1):
			items[i] = "+Inf"
		case math.IsInf(v, -1):
			items[i] = "-Inf"
		case math.IsNaN(v):
			return nil, fmt.Errorf("core: edge %d is NaN", i)
		default:
			items[i] = v
		}
	}
	return json.Marshal(items)
}

// UnmarshalJSON implements json.Unmarshaler, accepting numbers and the
// "+Inf"/"-Inf" strings.
func (e *edgeList) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make([]float64, len(raw))
	for i, r := range raw {
		var s string
		if err := json.Unmarshal(r, &s); err == nil {
			switch s {
			case "+Inf", "Inf":
				out[i] = math.Inf(1)
			case "-Inf":
				out[i] = math.Inf(-1)
			default:
				return fmt.Errorf("core: edge %d: unknown value %q", i, s)
			}
			continue
		}
		if err := json.Unmarshal(r, &out[i]); err != nil {
			return fmt.Errorf("core: edge %d: %w", i, err)
		}
	}
	*e = out
	return nil
}

func encodeED(key TypeKey, ed *ED) jsonED {
	return jsonED{
		Terms:    key.Terms,
		Band:     int(key.Band),
		Absolute: ed.Absolute,
		Edges:    edgeList(ed.Hist.Edges),
		Counts:   append([]int64(nil), ed.Hist.Counts...),
		Sums:     append([]float64(nil), ed.Hist.Sums...),
	}
}

func decodeED(j jsonED, useBinMean bool) (*ED, error) {
	ed, err := NewED(j.Edges, j.Absolute, useBinMean)
	if err != nil {
		return nil, err
	}
	if len(j.Counts) != ed.Hist.Bins() || len(j.Sums) != ed.Hist.Bins() {
		return nil, fmt.Errorf("core: persisted ED has %d counts / %d sums for %d bins",
			len(j.Counts), len(j.Sums), ed.Hist.Bins())
	}
	for i, c := range j.Counts {
		if c < 0 {
			return nil, fmt.Errorf("core: persisted ED counts %d observations in bin %d", c, i)
		}
	}
	copy(ed.Hist.Counts, j.Counts)
	copy(ed.Hist.Sums, j.Sums)
	return ed, nil
}

// encode renders the model's persisted form.
func (m *Model) encode() jsonModel {
	jm := jsonModel{
		Relevancy: m.Rel.Name(),
		Config: jsonConfig{
			Threshold:       m.Cfg.Classifier.Threshold,
			MaxTerms:        m.Cfg.Classifier.MaxTerms,
			ErrorEdges:      edgeList(m.Cfg.ErrorEdges),
			AbsoluteEdges:   edgeList(m.Cfg.absoluteEdges),
			UseBinMean:      m.Cfg.UseBinMean,
			MinObservations: m.Cfg.MinObservations,
		},
		Summaries: m.Summaries.Summaries,
	}
	for _, dm := range m.DBs {
		jd := jsonDBModel{Name: dm.Name}
		// Stable order: iterate the classifier's key enumeration.
		for _, key := range m.Cfg.Classifier.allKeys() {
			if ed, ok := dm.EDs[key]; ok {
				jd.EDs = append(jd.EDs, encodeED(key, ed))
			}
		}
		if dm.Pooled != nil {
			pooled := encodeED(TypeKey{}, dm.Pooled)
			jd.Pooled = &pooled
		}
		jm.DBs = append(jm.DBs, jd)
	}
	return jm
}

// checksum computes the envelope checksum over the payload's compact
// form, so it is insensitive to the re-indentation json.Marshal applies
// to embedded raw messages.
func checksum(payload []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return "", err
	}
	sum := sha256.Sum256(compact.Bytes())
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// Save writes the trained model to path as a checksummed format-2
// snapshot, atomically: the bytes land in a temp file in the same
// directory, are fsynced, and replace path with one rename, so a crash
// at any point leaves either the old snapshot or the new one — never a
// truncated hybrid.
func (m *Model) Save(path string) error {
	payload, err := json.MarshalIndent(m.encode(), "", " ")
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	sum, err := checksum(payload)
	if err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	env := snapshotEnvelope{
		Format:   FormatVersion,
		Checksum: sum,
		SavedAt:  time.Now().UTC(),
		Model:    payload,
	}
	data, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		return fmt.Errorf("core: encoding snapshot envelope: %w", err)
	}
	if err := writeFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing model: %w", err)
	}
	return nil
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, rename, and a directory fsync, so the file named path always
// holds either its previous content or the complete new content.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself; without this a crash can lose the new
	// directory entry even though the data blocks are safe.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadModel reads a model saved by Save: a format-2 envelope whose
// payload matches its checksum. The relevancy definition is
// reconstructed by name.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: decoding model %s (truncated or corrupt): %w", path, err)
	}
	if env.Format != FormatVersion {
		return nil, fmt.Errorf("core: model %s uses snapshot format %d; this build reads %d",
			path, env.Format, FormatVersion)
	}
	if len(env.Model) == 0 {
		return nil, fmt.Errorf("core: model %s: snapshot has no model payload (truncated?)", path)
	}
	got, err := checksum(env.Model)
	if err != nil {
		return nil, fmt.Errorf("core: model %s: snapshot payload is not valid JSON (truncated?): %w", path, err)
	}
	if got != env.Checksum {
		return nil, fmt.Errorf("core: model %s: checksum mismatch (%s recorded, %s computed) — file is corrupt or was modified",
			path, env.Checksum, got)
	}
	var jm jsonModel
	if err := json.Unmarshal(env.Model, &jm); err != nil {
		return nil, fmt.Errorf("core: decoding model %s (truncated or corrupt): %w", path, err)
	}
	return decodeModel(path, jm)
}

// maxSnapshotTerms bounds the term-count split a snapshot may ask for:
// the file is outside input, and that number sizes the classifier's key
// space — allKeys, the rows of every version's RD table.
const maxSnapshotTerms = 64

// decodeModel reconstructs a Model from its persisted form.
func decodeModel(path string, jm jsonModel) (*Model, error) {
	factory, ok := relevancyFactory(jm.Relevancy)
	if !ok {
		return nil, fmt.Errorf("core: model uses unknown relevancy %q", jm.Relevancy)
	}
	if len(jm.DBs) == 0 {
		return nil, fmt.Errorf("core: model %s has no databases", path)
	}
	if jm.Config.MaxTerms < 0 || jm.Config.MaxTerms > maxSnapshotTerms {
		return nil, fmt.Errorf("core: model %s: maxTerms %d outside [0, %d]", path, jm.Config.MaxTerms, maxSnapshotTerms)
	}
	if len(jm.Summaries) != len(jm.DBs) {
		return nil, fmt.Errorf("core: model %s has %d summaries for %d databases", path, len(jm.Summaries), len(jm.DBs))
	}
	for _, s := range jm.Summaries {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: model %s: %w", path, err)
		}
	}
	m := &Model{
		Cfg: Config{
			Classifier:      Classifier{Threshold: jm.Config.Threshold, MaxTerms: jm.Config.MaxTerms},
			ErrorEdges:      jm.Config.ErrorEdges,
			absoluteEdges:   jm.Config.AbsoluteEdges,
			UseBinMean:      jm.Config.UseBinMean,
			MinObservations: jm.Config.MinObservations,
		},
		Rel:       factory(),
		Summaries: &summary.Set{Summaries: jm.Summaries},
	}
	maxTerms := classifierKeySpace(m.Cfg.Classifier) / 3
	var err error
	for _, jd := range jm.DBs {
		dm := &DBModel{Name: jd.Name, EDs: make(map[TypeKey]*ED, len(jd.EDs))}
		for _, je := range jd.EDs {
			ed, err := decodeED(je, m.Cfg.UseBinMean)
			if err != nil {
				return nil, fmt.Errorf("core: model %s db %s: %w", path, jd.Name, err)
			}
			// A key the classifier never produces would load, serve
			// nothing and vanish at the next Save.
			if je.Terms < 1 || je.Terms > maxTerms || je.Band < 0 || je.Band > int(BandHigh) {
				return nil, fmt.Errorf("core: model %s db %s: query type (%d terms, band %d) outside the classifier's", path, jd.Name, je.Terms, je.Band)
			}
			dm.EDs[TypeKey{Terms: je.Terms, Band: EstimateBand(je.Band)}] = ed
		}
		if jd.Pooled != nil {
			dm.Pooled, err = decodeED(*jd.Pooled, m.Cfg.UseBinMean)
			if err != nil {
				return nil, fmt.Errorf("core: model %s db %s pooled: %w", path, jd.Name, err)
			}
		} else {
			dm.Pooled, err = NewED(m.Cfg.ErrorEdges, false, m.Cfg.UseBinMean)
			if err != nil {
				return nil, err
			}
		}
		m.DBs = append(m.DBs, dm)
	}
	return m, nil
}
