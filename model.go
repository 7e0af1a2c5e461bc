package metaprobe

// The serving model's lifecycle at the facade: train, save, load and
// reload, what operators ask about it, probe feedback and drift alerts,
// and the host the background refresher runs against. Each is a thin
// call on internal/modelhost, which owns the model.

import (
	"context"
	"fmt"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/hidden"
	"metaprobe/internal/modelhost"
	"metaprobe/internal/refresh"
)

// Train learns the per-database, per-query-type error distributions by
// issuing the training queries to every database (Section 4 of the
// paper). Training queries should resemble the future workload; a few
// hundred per query type suffice (Figure 8).
func (m *Metasearcher) Train(trainQueries []string) error {
	qs, err := parseQueries(trainQueries)
	if err != nil {
		return err
	}
	model, err := core.Train(m.tb, m.sums, m.rel, qs, m.cfg.Model)
	if err != nil {
		return fmt.Errorf("metaprobe: %w", err)
	}
	m.host.Install(model, "train")
	return nil
}

// RefreshNow enqueues an out-of-band refresh of one (database, query
// type) — the same path a drift alert takes — for operators who know a
// collection changed without waiting for detection. queryType is the
// DriftStatus form, e.g. "2-term/high". The refresh runs in the
// background; follow it through RefreshStats or /debug/model.
func (m *Metasearcher) RefreshNow(db, queryType string) error {
	if m.refresher == nil {
		return fmt.Errorf("metaprobe: online refresh not configured (Config.RefreshQueries)")
	}
	i := m.tb.IndexOf(db)
	if i < 0 {
		return fmt.Errorf("metaprobe: unknown database %q", db)
	}
	key, err := core.ParseTypeKey(queryType)
	if err != nil {
		return fmt.Errorf("metaprobe: %w", err)
	}
	m.refresher.Alert(refresh.Alert{DB: db, DBIdx: i, Key: key})
	return nil
}

// RefreshStats reports the background refresher's lifetime counters
// and its most recent validation (zero value without
// Config.RefreshQueries).
func (m *Metasearcher) RefreshStats() RefreshStats {
	return m.refresher.Stats()
}

// DriftStatuses reports the state of every drift-monitored (database,
// query type): window occupancy, tests run, alerts raised, latest KS
// statistic and p-value. Empty unless Config.Drift is set and the
// model is trained.
func (m *Metasearcher) DriftStatuses() []DriftStatus {
	return m.host.DriftStatuses()
}

// probe issues query live to database i under ctx (the bound-context view
// carries cancellation to the wire); an answer core.CheckAnswer refuses is
// a failed probe, which no selection, feedback or refresh sees.
func (m *Metasearcher) probe(ctx context.Context, i int, query string) (float64, error) {
	return core.CheckAnswer(m.rel.Probe(hidden.WithContext(ctx, m.tb.DB(i)), query))
}

// probeFeedback folds one successful live probe back into the shared
// model state (online refinement, drift detection); many selections, or
// one selection's probe and the successor started behind it, land here
// concurrently. The feedback does not touch the selection it came from:
// the host recomputes what it needs from the model. A drift alert comes
// back as a value and goes to the background refresher (a nil one
// ignores it) after the host's lock is released.
func (m *Metasearcher) probeFeedback(i int, query string, numTerms int, v float64) error {
	if !m.cfg.OnlineRefinement && !m.cfg.Drift {
		return nil
	}
	alert, drifted, err := m.host.Observe(i, query, numTerms, v, m.cfg.OnlineRefinement)
	if drifted {
		m.refresher.Alert(alert)
	}
	return err
}

// SaveModel persists the trained error model (including the content
// summaries) as a versioned, checksummed snapshot written atomically
// (temp file + fsync + rename), so future sessions can skip training
// and a crash mid-write never corrupts the previous snapshot.
func (m *Metasearcher) SaveModel(path string) error {
	// The host's lock keeps online refinement from mutating histograms
	// while they are encoded.
	return m.host.Locked(func(ver *core.ModelVersion) error {
		if ver == nil {
			return fmt.Errorf("metaprobe: nothing to save; call Train first")
		}
		return ver.Model.Save(path)
	})
}

// checkModelMatches validates a loaded model against the mediated
// databases.
func checkModelMatches(dbs []Database, model *core.Model) error {
	if len(dbs) != len(model.DBs) {
		return fmt.Errorf("metaprobe: %d databases for a %d-database model", len(dbs), len(model.DBs))
	}
	for i, db := range dbs {
		if db.Name() != model.DBs[i].Name {
			return fmt.Errorf("metaprobe: database %d is %q but the model expects %q", i, db.Name(), model.DBs[i].Name)
		}
	}
	return nil
}

// NewFromModel builds a metasearcher from databases and a previously
// saved model file. Database names must match the model's databases,
// in order; summaries and the relevancy definition come from the file.
func NewFromModel(dbs []Database, modelPath string, cfg *Config) (*Metasearcher, error) {
	model, err := core.LoadModel(modelPath)
	if err != nil {
		return nil, fmt.Errorf("metaprobe: %w", err)
	}
	if err := checkModelMatches(dbs, model); err != nil {
		return nil, err
	}
	ms, err := New(dbs, model.Summaries.Summaries, cfg)
	if err != nil {
		return nil, err
	}
	ms.rel = model.Rel
	ms.host.Install(model, "load")
	return ms, nil
}

// ReloadModel hot-swaps the serving model with one loaded from disk,
// without interrupting traffic: in-flight selections finish on the
// version they started with, and the next selection sees the reloaded
// model. The file must describe the same databases and relevancy
// definition as the running metasearcher. Drift references re-anchor
// on the reloaded EDs, and any refresh committed against the old
// version is rejected as superseded.
func (m *Metasearcher) ReloadModel(path string) error {
	model, err := core.LoadModel(path)
	if err != nil {
		return fmt.Errorf("metaprobe: %w", err)
	}
	if err := checkModelMatches(m.tb.Databases(), model); err != nil {
		return err
	}
	if model.Rel.Name() != m.rel.Name() {
		return fmt.Errorf("metaprobe: model uses relevancy %q but the metasearcher runs %q",
			model.Rel.Name(), m.rel.Name())
	}
	m.host.Install(model, "reload")
	return nil
}

// ModelInfo describes the serving model version for operators (the
// /debug/model endpoint renders it as JSON).
type ModelInfo struct {
	// Trained is false before Train or NewFromModel; the remaining
	// fields are then zero.
	Trained bool `json:"trained"`
	// Version counts published models (1 = first train/load); each
	// hot-swap — reload or accepted refresh — increments it.
	Version int64 `json:"version,omitempty"`
	// Source is how this version was published: "train", "load",
	// "reload" or "refresh".
	Source string `json:"source,omitempty"`
	// CreatedAt is the version's publication time and AgeSeconds its
	// age now.
	CreatedAt  time.Time `json:"createdAt,omitempty"`
	AgeSeconds float64   `json:"ageSeconds,omitempty"`
	// Databases counts the mediated databases.
	Databases int `json:"databases,omitempty"`
	// RefreshedAt maps database name → last accepted online refresh
	// (absent for databases never refreshed).
	RefreshedAt map[string]time.Time `json:"refreshedAt,omitempty"`
	// Refresh carries the refresher counters and the last validation
	// scores; nil without Config.RefreshQueries.
	Refresh *RefreshStats `json:"refresh,omitempty"`
	// MemoNodes counts the states this version's decision memo holds —
	// what selections over it have decided already and a repeated query
	// reads back instead of computing — and MemoOn whether it
	// remembers: it does except while online refinement is republishing
	// the rows those decisions are made from, after which it starts
	// over at 0 nodes.
	MemoNodes int  `json:"memoNodes"`
	MemoOn    bool `json:"memoOn"`
}

// ModelInfo reports the serving model version, its age and provenance,
// per-database refresh timestamps, and refresher statistics.
func (m *Metasearcher) ModelInfo() ModelInfo {
	v := m.host.View()
	if !v.Trained() {
		return ModelInfo{}
	}
	p := v.Provenance()
	info := ModelInfo{
		Trained:    true,
		Version:    p.Version,
		Source:     p.Source,
		CreatedAt:  p.CreatedAt,
		AgeSeconds: time.Since(p.CreatedAt).Seconds(),
		Databases:  m.tb.Len(),
	}
	info.MemoNodes, info.MemoOn = v.Memo()
	if len(p.RefreshedAt) > 0 {
		info.RefreshedAt = p.RefreshedAt
	}
	if m.refresher != nil {
		s := m.refresher.Stats()
		info.Refresh = &s
	}
	return info
}

// readyFailureStreak is the number of consecutive refresh tasks that
// failed to publish after which Ready reports the refresher wedged.
const readyFailureStreak = 3

// Ready reports whether the metasearcher can serve selections at
// quality, nil when it can. An untrained model is not ready; so is a
// configured background refresher whose last readyFailureStreak tasks
// all failed to publish — the serving model is then drifting with no
// working repair path, which should flip readiness before operators
// notice stale answers. Wire it to a readiness endpoint via
// obs.ReadyzCheckHandler.
func (m *Metasearcher) Ready() error {
	if !m.Trained() {
		return fmt.Errorf("model not trained")
	}
	if m.refresher != nil {
		s := m.refresher.Stats()
		if s.FailureStreak >= readyFailureStreak {
			if s.LastError != "" {
				return fmt.Errorf("refresher wedged: %d consecutive refresh tasks failed to publish (last: %s)",
					s.FailureStreak, s.LastError)
			}
			return fmt.Errorf("refresher wedged: %d consecutive refresh tasks failed to publish", s.FailureStreak)
		}
	}
	return nil
}

// refreshHost is what the background refresher runs against: the
// model host for the one alerted ED (copied out, committed back with an
// atomic version swap) and the shared executor for its probes, so
// refresh traffic is subject to the same probe slots and breakers as
// live selections.
type refreshHost struct {
	*modelhost.Host
	m *Metasearcher
}

func (h refreshHost) Probe(ctx context.Context, dbIdx int, query string) (float64, error) {
	return h.m.exec.Probe(ctx, h.m.dbName(dbIdx), func(ctx context.Context) (float64, error) {
		return h.m.probe(ctx, dbIdx, query)
	})
}
