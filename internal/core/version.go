package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Model versioning: serving reads a *ModelVersion through an RCU-style
// atomic pointer (internal/modelhost owns the pointer); a refresh builds a
// copy-on-write successor model with WithED, a reload loads one, and
// either is published with one atomic store. In-flight selections keep
// the version they started with; nothing ever blocks on a swap.

// ModelVersion is one numbered model snapshot plus its provenance.
// Readers — selections — use only what never changes after
// publication: the model's configuration, relevancy definition and
// summaries, and the rows of the RD table (rdtable.go gives the rule).
// The model's EDs do change, through Observe; they belong to the
// writers, who hold the lock of whoever owns the serving pointer.
type ModelVersion struct {
	// Version counts published models, starting at 1 for the first
	// Train or load.
	Version int64
	// CreatedAt is when this version was published.
	CreatedAt time.Time
	// Source records how the version came to be: "train", "load",
	// "reload" or "refresh".
	Source string
	// Model is the trained model itself.
	Model *Model
	// RefreshedAt maps database name → the last time an online refresh
	// rebuilt any of that database's EDs (carried across versions).
	RefreshedAt map[string]time.Time
	// rdtab is the version's precomputed RD table (rdtable.go):
	// per-(database, query-type) rows preconvolved from the EDs at
	// publication, republished once per epoch of observations and
	// shared copy-on-write across Next. Unexported and derived — never
	// serialized; loading a snapshot rebuilds it through
	// NewModelVersion.
	rdtab *rdTable
	// memo is the version's decision memo (memo.go): what selections over
	// the table's rows as last published have decided, per state. Nil
	// only while rows are being republished; a fresh tree follows. Like
	// the table it is derived and never serialized, and no successor
	// inherits it.
	memo atomic.Pointer[memoTree]
}

// NewModelVersion wraps a freshly trained or loaded model as version
// 1, preconvolving the model's RD table so selections serve from
// lookups rather than re-deriving RDs per query.
func NewModelVersion(m *Model, source string, now time.Time) *ModelVersion {
	tab := newRDTable(m)
	tab.prebuild(m)
	v := &ModelVersion{
		Version:     1,
		CreatedAt:   now,
		Source:      source,
		Model:       m,
		RefreshedAt: make(map[string]time.Time),
		rdtab:       tab,
	}
	startMemo(&v.memo)
	return v
}

// Next derives the successor version holding m. refreshedDB, when
// non-empty, stamps that database's refresh time; the rest of the
// refresh history carries over. The successor's RD table is derived
// copy-on-write: rows over EDs shared with this version's model are
// shared, only rows over replaced EDs (the retrained key, a reloaded
// model) are preconvolved anew. Sharing goes by ED identity, so this
// version's pending rows are published first; otherwise its table is
// untouched, and in-flight selections against it stay coherent. A
// writer: callers hold the model lock.
func (v *ModelVersion) Next(m *Model, source, refreshedDB string, now time.Time) *ModelVersion {
	v.publishRows()
	next := &ModelVersion{
		Version:     v.Version + 1,
		CreatedAt:   now,
		Source:      source,
		Model:       m,
		RefreshedAt: make(map[string]time.Time, len(v.RefreshedAt)+1),
		rdtab:       v.rdtab.derive(v.Model, m),
	}
	for db, t := range v.RefreshedAt {
		next.RefreshedAt[db] = t
	}
	if refreshedDB != "" {
		next.RefreshedAt[refreshedDB] = now
	}
	startMemo(&next.memo)
	return next
}

// WithED returns the copy-on-write successor of m in which database
// dbIdx's ED for key is ed: every other ED, the pooled EDs and all
// other databases are shared with m, so observations refined into them
// meanwhile are kept. m is read, not changed; callers hold the lock
// that serializes m's writers.
func (m *Model) WithED(dbIdx int, key TypeKey, ed *ED) (*Model, error) {
	if dbIdx < 0 || dbIdx >= len(m.DBs) {
		return nil, fmt.Errorf("core: WithED: database index %d outside [0, %d)", dbIdx, len(m.DBs))
	}
	src := m.DBs[dbIdx]
	dm := &DBModel{Name: src.Name, Pooled: src.Pooled, EDs: make(map[TypeKey]*ED, len(src.EDs)+1)}
	for k, e := range src.EDs {
		dm.EDs[k] = e
	}
	dm.EDs[key] = ed
	next := *m
	next.DBs = append([]*DBModel(nil), m.DBs...)
	next.DBs[dbIdx] = dm
	return &next, nil
}

// ParseTypeKey parses the String form of a TypeKey ("2-term/high") —
// the shape drift alerts carry — back into the key.
func ParseTypeKey(s string) (TypeKey, error) {
	terms, band, ok := strings.Cut(s, "-term/")
	if !ok {
		return TypeKey{}, fmt.Errorf("core: malformed query-type key %q", s)
	}
	var k TypeKey
	if _, err := fmt.Sscanf(terms, "%d", &k.Terms); err != nil || k.Terms < 1 {
		return TypeKey{}, fmt.Errorf("core: malformed query-type key %q", s)
	}
	switch band {
	case "zero":
		k.Band = BandZero
	case "low":
		k.Band = BandLow
	case "high":
		k.Band = BandHigh
	default:
		return TypeKey{}, fmt.Errorf("core: unknown estimate band in query-type key %q", s)
	}
	return k, nil
}
