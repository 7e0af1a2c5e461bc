package prof

import (
	"context"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"metaprobe/internal/obs"
)

// SamplerConfig configures a runtime-telemetry Sampler.
type SamplerConfig struct {
	// Interval between samples (default 5s).
	Interval time.Duration
	// Metrics receives the mp_runtime_* gauges. A nil registry makes
	// the sampler a no-op.
	Metrics *obs.Registry
}

// gaugeSpec maps one runtime/metrics counter or gauge onto an
// mp_runtime_* series. Candidates are tried in order against the
// running Go version's metric set, so a rename across Go releases
// degrades to "series absent" rather than a panic.
type gaugeSpec struct {
	out        string
	help       string
	candidates []string
}

// histSpec maps one runtime/metrics Float64Histogram onto quantile
// gauges mp_runtime_<out>{quantile="..."}.
type histSpec struct {
	out        string
	help       string
	candidates []string
}

var runtimeGauges = []gaugeSpec{
	{"mp_runtime_heap_inuse_bytes", "Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects:bytes).",
		[]string{"/memory/classes/heap/objects:bytes"}},
	{"mp_runtime_goroutines", "Live goroutine count.",
		[]string{"/sched/goroutines:goroutines"}},
	{"mp_runtime_gc_cycles_total", "Completed GC cycles since process start.",
		[]string{"/gc/cycles/total:gc-cycles"}},
	{"mp_runtime_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap.",
		[]string{"/gc/heap/allocs:bytes"}},
	{"mp_runtime_gc_goal_bytes", "Heap size target for the end of the current GC cycle.",
		[]string{"/gc/heap/goal:bytes"}},
}

var runtimeHists = []histSpec{
	{"mp_runtime_gc_pause_seconds", "Distribution of stop-the-world GC pause latencies.",
		[]string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}},
	{"mp_runtime_sched_latency_seconds", "Distribution of goroutine scheduling latency (runnable to running).",
		[]string{"/sched/latencies:seconds"}},
}

var samplerQuantiles = []float64{0.5, 0.9, 0.99}

// Sampler periodically reads runtime/metrics into mp_runtime_*
// gauges. Create with NewSampler, then Start; Sample may also be
// called directly for a one-shot read (the shutdown path uses this to
// flush a final sample).
type Sampler struct {
	cfg SamplerConfig

	// resolved series: parallel to the spec tables, with the metric
	// name that this Go version actually exposes ("" = unavailable).
	gaugeNames []string
	histNames  []string
	samples    []metrics.Sample // one read buffer, reused across samples
	gaugeIdx   []int            // index into samples per runtimeGauges entry, -1 if absent
	histIdx    []int

	gauges []*obs.Gauge
	qGauge [][]*obs.Gauge // per histSpec, per quantile

	mu     sync.Mutex
	last   map[string]float64 // latest values by output series name (quantiles suffixed)
	cancel context.CancelFunc
	done   chan struct{}
}

// NewSampler builds a sampler, resolving which runtime/metrics names
// this Go version supports.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	s := &Sampler{cfg: cfg, last: make(map[string]float64)}

	available := make(map[string]bool)
	for _, d := range metrics.All() {
		available[d.Name] = true
	}
	pick := func(candidates []string) string {
		for _, name := range candidates {
			if available[name] {
				return name
			}
		}
		return ""
	}

	r := cfg.Metrics
	for _, spec := range runtimeGauges {
		name := pick(spec.candidates)
		s.gaugeNames = append(s.gaugeNames, name)
		if name == "" {
			s.gaugeIdx = append(s.gaugeIdx, -1)
			s.gauges = append(s.gauges, nil)
			continue
		}
		r.Help(spec.out, spec.help)
		s.gaugeIdx = append(s.gaugeIdx, len(s.samples))
		s.samples = append(s.samples, metrics.Sample{Name: name})
		s.gauges = append(s.gauges, r.Gauge(spec.out, nil))
	}
	for _, spec := range runtimeHists {
		name := pick(spec.candidates)
		s.histNames = append(s.histNames, name)
		if name == "" {
			s.histIdx = append(s.histIdx, -1)
			s.qGauge = append(s.qGauge, nil)
			continue
		}
		r.Help(spec.out, spec.help)
		s.histIdx = append(s.histIdx, len(s.samples))
		s.samples = append(s.samples, metrics.Sample{Name: name})
		qs := make([]*obs.Gauge, len(samplerQuantiles))
		for i, q := range samplerQuantiles {
			qs[i] = r.Gauge(spec.out, obs.Labels{"quantile": formatQuantile(q)})
		}
		s.qGauge = append(s.qGauge, qs)
	}
	return s
}

func formatQuantile(q float64) string {
	switch q {
	case 0.5:
		return "0.5"
	case 0.9:
		return "0.9"
	case 0.99:
		return "0.99"
	}
	return "0"
}

// Sample performs one runtime/metrics read and publishes every
// resolved series. Safe on a nil sampler.
func (s *Sampler) Sample() {
	if s == nil || len(s.samples) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	for i, spec := range runtimeGauges {
		idx := s.gaugeIdx[i]
		if idx < 0 {
			continue
		}
		v := sampleValue(s.samples[idx])
		s.gauges[i].Set(v)
		s.last[spec.out] = v
	}
	for i, spec := range runtimeHists {
		idx := s.histIdx[i]
		if idx < 0 {
			continue
		}
		h := s.samples[idx].Value.Float64Histogram()
		if h == nil {
			continue
		}
		for j, q := range samplerQuantiles {
			v := histQuantile(h, q)
			s.qGauge[i][j].Set(v)
			s.last[spec.out+"{q="+formatQuantile(q)+"}"] = v
		}
	}
}

// sampleValue flattens a runtime/metrics value to float64.
func sampleValue(sm metrics.Sample) float64 {
	switch sm.Value.Kind() {
	case metrics.KindUint64:
		return float64(sm.Value.Uint64())
	case metrics.KindFloat64:
		return sm.Value.Float64()
	}
	return 0
}

// histQuantile computes quantile q from a runtime/metrics
// Float64Histogram: cumulative counts over the bucket ladder, with
// the answer taken at the upper boundary of the bucket that crosses
// the target rank (infinite boundaries fall back to the nearest
// finite edge). Returns 0 for an empty histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Bucket i spans Buckets[i] .. Buckets[i+1].
			hi := h.Buckets[i+1]
			if !math.IsInf(hi, 0) {
				return hi
			}
			lo := h.Buckets[i]
			if !math.IsInf(lo, 0) {
				return lo
			}
			return 0
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Snapshot returns the most recent sampled values by output series
// name (histogram series appear as "name{q=0.99}"). Used by the web
// UI panel. Safe on a nil sampler.
func (s *Sampler) Snapshot() map[string]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.last))
	for k, v := range s.last {
		out[k] = v
	}
	return out
}

// Start launches the background sampling loop (taking an immediate
// first sample). No-op on nil or if already started.
func (s *Sampler) Start(ctx context.Context) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done != nil {
		s.mu.Unlock()
		return
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.done = make(chan struct{})
	done := s.done
	s.mu.Unlock()

	s.Sample()
	go func() {
		defer close(done)
		ticker := time.NewTicker(s.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				s.Sample()
			}
		}
	}()
}

// Stop halts the loop, waits for it to exit, and flushes one final
// sample so the shutdown state is visible in the last scrape /
// snapshot. Safe on nil / never-started, and idempotent.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.cancel, s.done = nil, nil
	s.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
	s.Sample()
}
