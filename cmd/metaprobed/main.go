// Command metaprobed is the metaprobe selection daemon: a long-running
// multi-tenant service that answers database-selection requests over
// HTTP/JSON. It fronts the paper's adaptive-probing algorithm with the
// service machinery heavy traffic needs — batch coalescing of
// concurrent identical requests, per-tenant token buckets, global
// admission control with graceful load-shedding tiers (full APro →
// RD-only → r̂-only), per-tenant hot-swappable models, and graceful
// drain on SIGTERM.
//
//	metaprobed -addr :8091 -scale 0.02 -tenants default,acme
//	curl 'localhost:8091/v1/select?q=breast+cancer&k=3&t=0.9'
//	curl -s localhost:8091/debug/model | jq .skew
//
// Every response carries a "tier" field naming the service level it
// was computed at; under overload the daemon degrades tiers instead of
// erroring, so availability stays 100% with honestly-labeled answers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"metaprobe"
	"metaprobe/internal/core"
	"metaprobe/internal/corpus"
	"metaprobe/internal/hidden"
	"metaprobe/internal/obs"
	"metaprobe/internal/queries"
	"metaprobe/internal/server"
	"metaprobe/internal/stats"
)

var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func fatal(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

// readHeaderTimeout is how long a client has to deliver a request's
// header once it has connected or begun the request. Without it a peer
// that sends half a request line holds its connection and the goroutine
// serving it until the process exits. It does not time an idle
// keep-alive connection, nor a request's body, nor the selection.
const readHeaderTimeout = 5 * time.Second

func main() {
	fs := flag.NewFlagSet("metaprobed", flag.ExitOnError)
	addr := fs.String("addr", ":8091", "listen address")
	scale := fs.Float64("scale", 0.02, "testbed size multiplier")
	trainN := fs.Int("train", 300, "training queries per term count")
	seed := fs.Int64("seed", 2004, "random seed")
	tenants := fs.String("tenants", server.DefaultTenant, "comma-separated tenant names to serve")
	soft := fs.Int64("soft-inflight", 64, "inflight requests above which service degrades to rd_only")
	hard := fs.Int64("hard-inflight", 0, "inflight requests above which service degrades to rhat_only (0: 4x soft)")
	rate := fs.Float64("tenant-rate", 0, "per-tenant full-service budget in req/s (0: unmetered)")
	burst := fs.Int("tenant-burst", 32, "per-tenant full-service burst (token-bucket depth)")
	runTimeout := fs.Duration("run-timeout", 30*time.Second, "cap on one coalesced selection run")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM")
	fs.Parse(os.Args[1:])
	if err := checkSizes(*scale, *trainN); err != nil {
		// A usage error, reported the way the flag package reports a
		// value it cannot parse.
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		os.Exit(2)
	}

	names := splitTenants(*tenants)
	if len(names) == 0 {
		fatal(fmt.Errorf("need at least one tenant name"))
	}

	reg := metaprobe.NewMetrics()
	spans := metaprobe.NewSpanTracer(0)
	spans.Bind(reg)
	obs.RegisterBuildInfo(reg, "metaprobed", fmt.Sprint(core.FormatVersion))

	logger.Info("building testbed and training the shared model",
		"scale", *scale, "tenants", names)
	srv, err := buildServer(names, *scale, *seed, *trainN, server.Config{
		Metrics:      reg,
		Spans:        spans,
		SoftInflight: *soft,
		HardInflight: *hard,
		TenantRate:   *rate,
		TenantBurst:  *burst,
		RunTimeout:   *runTimeout,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// The bound address, not the flag: -addr 127.0.0.1:0 asks for a free
	// port and this line is where a caller reads which one it got.
	logger.Info("metaprobed serving",
		"addr", ln.Addr().String(), "tenants", len(names),
		"endpoints", "/v1/select /v1/tenants /debug/server /metrics /debug/spans /debug/model /debug/pprof /healthz /readyz")

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		// Drain first so /readyz flips not-ready and in-flight requests
		// finish, then stop the listener, then tear down the tenants.
		logger.Info("draining", "reason", "signal", "inflight", srv.Stats().Inflight)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			logger.Error("drain", "err", err)
		}
		if err := hs.Shutdown(dctx); err != nil {
			logger.Error("listener shutdown", "err", err)
		}
		srv.Close()
		st := srv.Stats()
		logger.Info("metaprobed stopped", "peak_inflight", st.PeakInflight)
	}
}

// checkSizes refuses a -scale or -train that would not build the asked
// for testbed: corpus.HealthTestbed reads a scale <= 0 as the paper's
// full size and floors every database of a NaN one at 50 documents, and
// a negative -train panics in the query generator.
func checkSizes(scale float64, trainN int) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale must be a positive finite number, got %v", scale)
	}
	if trainN < 1 {
		return fmt.Errorf("-train must be at least 1, got %d", trainN)
	}
	return nil
}

// splitTenants parses the -tenants flag.
func splitTenants(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// buildServer assembles the multi-tenant service over the synthetic
// health testbed: one shared training pass, then one metasearcher per
// tenant loaded from the same snapshot — each with its own RCU model
// chain, drift detector and refresh loop, so tenants hot-swap models
// independently from the moment they start.
func buildServer(names []string, scale float64, seed int64, trainN int, cfg server.Config) (*server.Server, error) {
	world := corpus.HealthWorld()
	tb, err := hidden.BuildTestbed(world, corpus.HealthTestbed(scale), seed)
	if err != nil {
		return nil, err
	}
	dbs := make([]metaprobe.Database, tb.Len())
	for i := range dbs {
		dbs[i] = tb.DB(i)
	}
	sums, err := metaprobe.ExactSummaries(dbs)
	if err != nil {
		return nil, err
	}
	gen, err := queries.NewGenerator(world, queries.Config{})
	if err != nil {
		return nil, err
	}
	pool, err := gen.Pool(stats.NewRNG(seed).Fork(1), trainN, trainN)
	if err != nil {
		return nil, err
	}
	train := make([]string, len(pool))
	for i, q := range pool {
		train[i] = q.String()
	}
	// The refresh pool feeds each tenant's drift-triggered retraining
	// (disjoint seed fork from the training pool).
	refreshPool, err := gen.Pool(stats.NewRNG(seed).Fork(2), trainN, trainN)
	if err != nil {
		return nil, err
	}
	refreshQueries := func(numTerms, n int) []string {
		var out []string
		for _, q := range refreshPool {
			if q.NumTerms() == numTerms {
				out = append(out, q.String())
				if len(out) >= n {
					break
				}
			}
		}
		return out
	}
	tenantCfg := func() *metaprobe.Config {
		return &metaprobe.Config{
			Metrics:        cfg.Metrics,
			Spans:          cfg.Spans,
			Drift:          true,
			RefreshQueries: refreshQueries,
		}
	}

	// Train once, snapshot, then give every tenant its own metasearcher
	// loaded from that snapshot: identical models at boot, independent
	// version chains afterwards.
	trained, err := metaprobe.New(dbs, sums, tenantCfg())
	if err != nil {
		return nil, err
	}
	if err := trained.Train(train); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "metaprobed-model-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapshot := filepath.Join(dir, "model.mpb")
	if err := trained.SaveModel(snapshot); err != nil {
		return nil, err
	}

	srv := server.New(cfg)
	for i, name := range names {
		var ms *metaprobe.Metasearcher
		if i == 0 {
			// The first tenant serves the freshly trained model directly.
			ms = trained
		} else {
			ms, err = metaprobe.NewFromModel(dbs, snapshot, tenantCfg())
			if err != nil {
				srv.Close()
				return nil, err
			}
		}
		if err := srv.AddTenant(name, ms); err != nil {
			ms.Close()
			srv.Close()
			return nil, err
		}
		info := ms.ModelInfo()
		logger.Info("tenant ready", "tenant", name, "model_version", info.Version, "source", info.Source)
	}
	return srv, nil
}
