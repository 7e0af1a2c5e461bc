// Package server is metaprobe's multi-tenant selection service: a
// long-running daemon core that fronts many concurrent callers over
// HTTP/JSON on top of the library's probe-execution and RCU model-
// serving substrate.
//
// Three mechanisms make it hold up under heavy traffic:
//
//   - A batch coalescer (coalesce.go) merges concurrent identical
//     requests into one probe trajectory and fans the result out.
//   - Admission control (admission.go) degrades service under
//     pressure — full APro → RD-only → r̂-only — instead of erroring,
//     and the response labels the served tier honestly.
//   - Per-tenant model registries: each tenant serves off its own
//     Metasearcher, whose core.ModelVersion RCU pointer hot-swaps
//     independently (train / reload / background refresh), so one
//     tenant's model churn never blocks another's selections.
//
// cmd/metaprobed wires this package to a listener and signal handling.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"metaprobe"
	"metaprobe/internal/obs"
	"metaprobe/internal/obs/span"
)

// Config tunes the service. The zero value serves a single unnamed
// tenant with generous limits.
type Config struct {
	// Metrics receives the mp_server_*, mp_batch_* and mp_shed_*
	// series. Nil disables service-layer metrics.
	Metrics *obs.Registry
	// Spans, when non-nil, is reported on responses via the underlying
	// selection's TraceID (the tenants' Metasearchers must share it for
	// the IDs to resolve at /debug/spans).
	Spans *span.Tracer
	// SoftInflight is the admitted-request count above which new
	// requests degrade to rd_only; <= 0 defaults to 64.
	SoftInflight int64
	// HardInflight is the count above which requests degrade to
	// rhat_only; <= 0 defaults to 4 × SoftInflight.
	HardInflight int64
	// TenantRate is each tenant's sustained full-service budget in
	// requests/second; a tenant past it degrades to rd_only until the
	// bucket refills. 0 — the default — leaves tenants unmetered.
	TenantRate float64
	// TenantBurst is the token-bucket depth (instantaneous full-service
	// burst); <= 0 defaults to 32.
	TenantBurst int
	// RunTimeout caps one coalesced selection run end to end; the run
	// context is detached from the callers', so this is the only bound
	// on an abandoned run. <= 0 defaults to 30s.
	RunTimeout time.Duration
}

// defaultK and defaultThreshold fill requests that omit k or threshold.
const (
	defaultK         = 3
	defaultThreshold = 0.9
)

// withDefaults returns cfg with unset fields filled.
func (cfg Config) withDefaults() Config {
	if cfg.SoftInflight <= 0 {
		cfg.SoftInflight = 64
	}
	if cfg.HardInflight <= 0 {
		cfg.HardInflight = 4 * cfg.SoftInflight
	}
	if cfg.TenantBurst <= 0 {
		cfg.TenantBurst = 32
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 30 * time.Second
	}
	return cfg
}

// tenant is one isolated serving unit: its own metasearcher (and so
// its own RCU model version chain and refresh loop) plus its own
// full-service token bucket.
type tenant struct {
	name   string
	ms     *metaprobe.Metasearcher
	dbs    int // databases ms mediates: the largest k it can answer
	bucket *tokenBucket
	// served is mp_server_requests_total for this tenant, by tier.
	served [numTiers]*obs.Counter
}

// Server is the multi-tenant selection service core. It is an
// http.Handler factory (Handler) plus a direct API (Do) that the
// benchmark's traced replay and tests drive in-process.
type Server struct {
	cfg  Config
	adm  *admission
	coal *coalescer

	mu      sync.RWMutex
	tenants map[string]*tenant

	// lifetime is the run context coalesced selections detach onto;
	// Close cancels it.
	lifetime context.Context
	cancel   context.CancelFunc
	drainMu  sync.Mutex
	drainOn  bool

	// latency is mp_server_request_seconds by tier.
	latency [numTiers]*obs.Histogram

	started time.Time
}

// New builds a server with no tenants; add them with AddTenant before
// serving traffic.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.SoftInflight, cfg.HardInflight, cfg.Metrics),
		coal:     newCoalescer(ctx, cfg.Metrics),
		tenants:  make(map[string]*tenant),
		lifetime: ctx,
		cancel:   cancel,
		started:  time.Now(),
	}
	for tier := range s.latency {
		s.latency[tier] = cfg.Metrics.Histogram("mp_server_request_seconds", obs.Labels{"tier": Tier(tier).String()})
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Help("mp_server_requests_total", "Selection requests served, by tenant and served tier.")
		reg.Help("mp_server_request_seconds", "End-to-end service latency of one selection request, by served tier.")
		reg.Help("mp_server_errors_total", "Selection requests that failed, by error kind.")
		reg.Help("mp_server_tenants", "Registered tenants.")
		reg.GaugeFunc("mp_server_tenants", nil, func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.tenants))
		})
	}
	return s
}

// AddTenant registers a tenant served by ms. Tenant names must be
// non-empty and unique; DefaultTenant is the name the HTTP layer
// substitutes for requests that omit one.
func (s *Server) AddTenant(name string, ms *metaprobe.Metasearcher) error {
	if name == "" {
		return fmt.Errorf("server: tenant name must be non-empty")
	}
	if ms == nil {
		return fmt.Errorf("server: tenant %q needs a metasearcher", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; ok {
		return fmt.Errorf("server: tenant %q already registered", name)
	}
	t := &tenant{
		name:   name,
		ms:     ms,
		dbs:    len(ms.Databases()),
		bucket: newTokenBucket(s.cfg.TenantRate, s.cfg.TenantBurst),
	}
	for tier := range t.served {
		t.served[tier] = s.cfg.Metrics.Counter("mp_server_requests_total", obs.Labels{"tenant": name, "tier": Tier(tier).String()})
	}
	s.tenants[name] = t
	return nil
}

// DefaultTenant is substituted for requests that omit a tenant.
const DefaultTenant = "default"

// tenantNames returns the registered tenant names, sorted.
func (s *Server) tenantNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tenant resolves a tenant by name ("" means DefaultTenant).
func (s *Server) tenant(name string) (*tenant, error) {
	if name == "" {
		name = DefaultTenant
	}
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &unknownTenantError{name}
	}
	return t, nil
}

// unknownTenantError distinguishes a caller mistake (404) from serving
// failures (500).
type unknownTenantError struct{ name string }

func (e *unknownTenantError) Error() string { return fmt.Sprintf("unknown tenant %q", e.name) }

// ready reports whether the server can serve selections at quality:
// at least one tenant, every tenant's model trained and healthy, and
// not draining.
func (s *Server) ready() error {
	if s.draining() {
		return fmt.Errorf("draining")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.tenants) == 0 {
		return fmt.Errorf("no tenants registered")
	}
	for name, t := range s.tenants {
		if err := t.ms.Ready(); err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
	}
	return nil
}

// draining reports whether Drain has begun.
func (s *Server) draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.drainOn
}

// Drain begins graceful shutdown: readiness flips to not-ready (so
// load balancers stop routing here), new selection requests are
// rejected with 503, and Drain blocks until every admitted request
// has finished or ctx expires. It does not stop tenant refreshers —
// call Close after the listener is down.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.drainOn = true
	s.drainMu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.adm.Inflight() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain timed out with %d requests in flight: %w",
				s.adm.Inflight(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Close cancels the run context (abandoning any coalesced runs still
// in flight) and closes every tenant's metasearcher, stopping their
// background refreshers. Call after Drain.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		t.ms.Close()
	}
}

// selectAnswer is the service-internal result of one selection run —
// the coalescer's fan-out unit. All waiters of a coalesced run share
// one instance; it is read-only after publication.
type selectAnswer struct {
	databases []string
	certainty float64
	probes    int
	reached   bool
	degraded  bool
	excluded  []string
	id        string
	traceID   string
}

// Do serves one selection request end to end: admission (tier
// decision), coalescing, tiered execution, metrics. It is the
// transport-independent core the HTTP handler and in-process callers
// share. Client mistakes (unknown tenant, bad metric, a threshold or k
// out of range) return errors before the request is admitted, so they
// cost no probe and reach no serving sink; under load the answer
// degrades instead of failing.
func (s *Server) Do(ctx context.Context, req SelectRequest) (*SelectResponse, error) {
	if s.draining() {
		return nil, errDraining
	}
	req = s.fillDefaults(req)
	metric, ten, err := s.check(req)
	if err != nil {
		s.countError(err)
		return nil, err
	}
	start := time.Now()
	tier, shedReason := s.adm.acquire(ten.bucket)
	defer s.adm.release()

	key := coalesceKey(ten.name, req.Query, req.K, req.Metric, req.Threshold, req.MaxProbes, tier)
	ans, joined, fanout, err := s.coal.do(ctx, ten.name, key, func(runCtx context.Context) (*selectAnswer, error) {
		runCtx, cancel := context.WithTimeout(runCtx, s.cfg.RunTimeout)
		defer cancel()
		return s.run(runCtx, ten, tier, req, metric)
	})
	if err != nil {
		s.countError(err)
		return nil, err
	}
	resp := &SelectResponse{
		Tenant:      ten.name,
		Tier:        tier.String(),
		ShedReason:  shedReason,
		Coalesced:   joined,
		Fanout:      fanout,
		Databases:   ans.databases,
		Certainty:   ans.certainty,
		Probes:      ans.probes,
		Reached:     ans.reached,
		Degraded:    ans.degraded,
		ExcludedDBs: ans.excluded,
		ID:          ans.id,
		TraceID:     ans.traceID,
		ElapsedMs:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	if s.cfg.Metrics != nil {
		ten.served[tier].Inc()
		s.latency[tier].Observe(time.Since(start).Seconds())
	}
	return resp, nil
}

// check resolves a defaulted request's metric and tenant and rejects
// what no selection could answer. A NaN threshold passes every ordered
// comparison a range check is usually written with — and then no
// certainty ever meets it, so the request would probe every database of
// the tenant; the test is written so that NaN fails it.
func (s *Server) check(req SelectRequest) (metaprobe.Metric, *tenant, error) {
	metric, err := parseMetric(req.Metric)
	if err != nil {
		return 0, nil, err
	}
	ten, err := s.tenant(req.Tenant)
	if err != nil {
		return 0, nil, err
	}
	switch {
	case req.Query == "":
		return 0, nil, &badRequestError{"empty query"}
	case !(req.Threshold >= 0 && req.Threshold <= 1):
		return 0, nil, &badRequestError{fmt.Sprintf("threshold %v outside [0, 1]", req.Threshold)}
	case req.K < 1 || req.K > ten.dbs:
		return 0, nil, &badRequestError{fmt.Sprintf("k=%d outside [1, %d], the databases of tenant %q", req.K, ten.dbs, ten.name)}
	}
	return metric, ten, nil
}

// errDraining is returned for requests arriving after Drain began.
var errDraining = fmt.Errorf("server draining")

// fillDefaults applies the request defaults to the fields
// left at their zero value — an absent parameter, an omitted JSON field.
// A negative k or threshold is not "unset": it stays for check to refuse.
func (s *Server) fillDefaults(req SelectRequest) SelectRequest {
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}
	if req.K == 0 {
		req.K = defaultK
	}
	if req.Threshold == 0 {
		req.Threshold = defaultThreshold
	}
	if req.Metric == "" {
		req.Metric = metaprobe.Absolute.String()
	}
	if req.MaxProbes == 0 {
		req.MaxProbes = -1
	}
	return req
}

// parseMetric maps the wire form to the core metric.
func parseMetric(s string) (metaprobe.Metric, error) {
	switch s {
	case "", metaprobe.Absolute.String():
		return metaprobe.Absolute, nil
	case metaprobe.Partial.String():
		return metaprobe.Partial, nil
	}
	return 0, &badRequestError{fmt.Sprintf("unknown metric %q (want %q or %q)",
		s, metaprobe.Absolute.String(), metaprobe.Partial.String())}
}

// run executes one selection at the admitted tier. Every tier answers
// from the tenant's current serving model version; only TierFull
// issues live probes.
func (s *Server) run(ctx context.Context, ten *tenant, tier Tier, req SelectRequest, metric metaprobe.Metric) (*selectAnswer, error) {
	switch tier {
	case TierFull:
		res, err := ten.ms.SelectWithCertaintyContext(ctx, req.Query, req.K, metric, req.Threshold, req.MaxProbes)
		if err != nil {
			return nil, err
		}
		return &selectAnswer{
			databases: res.Databases,
			certainty: res.Certainty,
			probes:    res.Probes,
			reached:   res.Reached,
			degraded:  res.Degraded,
			excluded:  res.ExcludedDBs,
			id:        res.ID,
			traceID:   res.TraceID,
		}, nil
	case TierRDOnly:
		names, certainty, err := ten.ms.SelectContext(ctx, req.Query, req.K, metric)
		if err != nil {
			return nil, err
		}
		return &selectAnswer{
			databases: names,
			certainty: certainty,
			reached:   certainty >= req.Threshold,
		}, nil
	default: // TierRhatOnly
		// The baseline needs no trained model and issues no probes; it
		// cannot fail on a well-formed request — the never-fail floor.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &selectAnswer{databases: ten.ms.SelectBaseline(req.Query, req.K)}, nil
	}
}

// countError classifies one failed request for mp_server_errors_total.
func (s *Server) countError(err error) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	kind := "internal"
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		kind = "canceled"
	case isClientError(err):
		kind = "client"
	}
	reg.Counter("mp_server_errors_total", obs.Labels{"kind": kind}).Inc()
}

// TenantModelInfo is one tenant's serving-model line in the
// /debug/model view.
type TenantModelInfo struct {
	metaprobe.ModelInfo
	Tenant string `json:"tenant"`
}

// ModelSkew summarizes version drift across tenants. Versions count
// per-tenant publications, so the interesting skew signal is age: a
// tenant whose model is much older than the newest one is lagging the
// refresh/reload pipeline.
type ModelSkew struct {
	// Tenants counts registered tenants; Untrained how many have no
	// model at all.
	Tenants   int `json:"tenants"`
	Untrained int `json:"untrained,omitempty"`
	// MinVersion/MaxVersion bound the per-tenant version counters.
	MinVersion int64 `json:"minVersion,omitempty"`
	MaxVersion int64 `json:"maxVersion,omitempty"`
	// NewestTenant/OldestTenant name the tenants serving the youngest
	// and oldest model versions, and AgeSpreadSeconds their gap.
	NewestTenant     string  `json:"newestTenant,omitempty"`
	OldestTenant     string  `json:"oldestTenant,omitempty"`
	AgeSpreadSeconds float64 `json:"ageSpreadSeconds,omitempty"`
}

// ModelsInfo is the multi-tenant /debug/model document: one ModelInfo
// per tenant plus the cross-tenant skew summary. It replaces the
// single-model view that endpoint had when the process served exactly
// one metasearcher.
type ModelsInfo struct {
	Tenants map[string]TenantModelInfo `json:"tenants"`
	Skew    ModelSkew                  `json:"skew"`
}

// modelsInfo snapshots every tenant's serving model version and the
// skew between them.
func (s *Server) modelsInfo() ModelsInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := ModelsInfo{Tenants: make(map[string]TenantModelInfo, len(s.tenants))}
	out.Skew.Tenants = len(s.tenants)
	var newest, oldest time.Time
	for name, t := range s.tenants {
		info := t.ms.ModelInfo()
		out.Tenants[name] = TenantModelInfo{ModelInfo: info, Tenant: name}
		if !info.Trained {
			out.Skew.Untrained++
			continue
		}
		if out.Skew.MinVersion == 0 || info.Version < out.Skew.MinVersion {
			out.Skew.MinVersion = info.Version
		}
		if info.Version > out.Skew.MaxVersion {
			out.Skew.MaxVersion = info.Version
		}
		if newest.IsZero() || info.CreatedAt.After(newest) {
			newest = info.CreatedAt
			out.Skew.NewestTenant = name
		}
		if oldest.IsZero() || info.CreatedAt.Before(oldest) {
			oldest = info.CreatedAt
			out.Skew.OldestTenant = name
		}
	}
	if !newest.IsZero() && !oldest.IsZero() {
		out.Skew.AgeSpreadSeconds = newest.Sub(oldest).Seconds()
	}
	return out
}

// Stats is a point-in-time view of the service counters for logs and
// tests.
type Stats struct {
	Inflight     int64
	PeakInflight int64
	tenants      int
}

// Stats snapshots the admission state.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	return Stats{Inflight: s.adm.Inflight(), PeakInflight: s.adm.Peak(), tenants: n}
}

// uptime is exposed for the debug handler.
func (s *Server) uptime() time.Duration { return time.Since(s.started) }
