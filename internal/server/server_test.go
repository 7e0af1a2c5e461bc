package server

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"metaprobe"
	"metaprobe/internal/obs"
)

// TestDoFullTierMatchesDirect: a full-tier service answer is identical
// to the direct library call — the service layer adds no drift.
func TestDoFullTierMatchesDirect(t *testing.T) {
	s, ms, qs := buildTestServer(t, Config{})
	for _, q := range qs[:8] {
		resp, err := s.Do(context.Background(), SelectRequest{Query: q, K: 3, Threshold: 0.9})
		if err != nil {
			t.Fatalf("Do(%q): %v", q, err)
		}
		if resp.Tier != "full" || resp.ShedReason != "" {
			t.Fatalf("idle request served at %q (%q), want full", resp.Tier, resp.ShedReason)
		}
		direct, err := ms.SelectWithCertaintyContext(context.Background(), q, 3, metaprobe.Absolute, 0.9, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Databases, direct.Databases) {
			t.Errorf("Do(%q) selected %v, direct call %v", q, resp.Databases, direct.Databases)
		}
		if resp.Certainty != direct.Certainty {
			t.Errorf("Do(%q) certainty %v, direct %v", q, resp.Certainty, direct.Certainty)
		}
	}
}

// TestDoTierExecution: the rd_only and rhat_only tiers answer from the
// model/summaries without probes and match their library equivalents.
func TestDoTierExecution(t *testing.T) {
	s, ms, qs := buildTestServer(t, Config{})
	ten, err := s.tenant(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	req := s.fillDefaults(SelectRequest{Query: q, K: 3, Threshold: 0.9})

	rd, err := s.run(context.Background(), ten, TierRDOnly, req, metaprobe.Absolute)
	if err != nil {
		t.Fatal(err)
	}
	wantSet, wantE, err := ms.Select(q, 3, metaprobe.Absolute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rd.databases, wantSet) || rd.certainty != wantE {
		t.Errorf("rd_only answered (%v, %v), want (%v, %v)", rd.databases, rd.certainty, wantSet, wantE)
	}
	if rd.probes != 0 {
		t.Errorf("rd_only spent %d probes, want 0", rd.probes)
	}

	rhat, err := s.run(context.Background(), ten, TierRhatOnly, req, metaprobe.Absolute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rhat.databases, ms.SelectBaseline(q, 3)) {
		t.Errorf("rhat_only answered %v, want the baseline ranking", rhat.databases)
	}
	if rhat.probes != 0 || rhat.certainty != 0 {
		t.Errorf("rhat_only claimed probes=%d certainty=%v, want 0/0", rhat.probes, rhat.certainty)
	}
}

// TestDoShedsTenantRate: a tenant past its token bucket degrades to
// rd_only with reason tenant_rate — and still gets an answer.
func TestDoShedsTenantRate(t *testing.T) {
	s, _, qs := buildTestServer(t, Config{TenantRate: 0.000001, TenantBurst: 1})
	first, err := s.Do(context.Background(), SelectRequest{Query: qs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != "full" {
		t.Fatalf("first request served at %q, want full", first.Tier)
	}
	second, err := s.Do(context.Background(), SelectRequest{Query: qs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if second.Tier != "rd_only" || second.ShedReason != shedTenantRate {
		t.Fatalf("second request served at %q (%q), want rd_only/tenant_rate", second.Tier, second.ShedReason)
	}
	if len(second.Databases) == 0 {
		t.Fatal("degraded request got an empty answer")
	}
}

// TestDoShedsOverload drives concurrent requests through gated
// databases so the inflight gauge crosses soft and hard limits; every
// request must still be answered (availability stays 100%), with the
// excess honestly labeled rd_only / rhat_only.
func TestDoShedsOverload(t *testing.T) {
	ctl := newGateCtl()
	ms, qs := buildTestMetasearcher(t, nil, func(db metaprobe.Database) metaprobe.Database {
		return &gate{Database: db, ctl: ctl}
	})
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, SoftInflight: 2, HardInflight: 4})
	if err := s.AddTenant(DefaultTenant, ms); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Distinct queries (so the coalescer cannot merge them) that all
	// genuinely need probes: a full-tier run must block on the gate for
	// the inflight gauge to climb.
	probing := probingQueries(t, ms, qs, 8)
	n := len(probing)
	ctl.armed.Store(true)
	var wg sync.WaitGroup
	tiers := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Do(context.Background(), SelectRequest{Query: probing[i], Threshold: 0.999})
			if err != nil {
				errs[i] = err
				return
			}
			tiers[i] = resp.Tier
		}(i)
	}
	// Full-tier requests block inside the gated probes; degraded tiers
	// (no probes) complete immediately. Peak inflight is sticky, and
	// any acquire that saw 3 concurrent was shed (soft = 2).
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().PeakInflight < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight never crossed the soft limit (peak %d)", s.Stats().PeakInflight)
		}
		time.Sleep(time.Millisecond)
	}
	ctl.release()
	wg.Wait()

	counts := map[string]int{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed under overload: %v (availability must stay 100%%)", i, errs[i])
		}
		counts[tiers[i]]++
	}
	if counts["rd_only"]+counts["rhat_only"] == 0 {
		t.Fatalf("no request was shed at soft=2 hard=4 with %d concurrent: %v", n, counts)
	}
	if counts["full"] == 0 {
		t.Fatalf("every request was shed: %v", counts)
	}
}

// TestDoCoalescesConcurrentIdentical: identical concurrent requests
// share one probe trajectory and all receive the same answer.
func TestDoCoalescesConcurrentIdentical(t *testing.T) {
	ctl := newGateCtl()
	ms, qs := buildTestMetasearcher(t, nil, func(db metaprobe.Database) metaprobe.Database {
		return &gate{Database: db, ctl: ctl}
	})
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	if err := s.AddTenant(DefaultTenant, ms); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const n = 6
	req := SelectRequest{Query: probingQueries(t, ms, qs, 1)[0], K: 3, Threshold: 0.999}
	ctl.armed.Store(true)
	var wg sync.WaitGroup
	resps := make([]*SelectResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Do(context.Background(), req)
		}(i)
	}
	key := coalesceKey(DefaultTenant, req.Query, req.K, "absolute", req.Threshold, -1, TierFull)
	deadline := time.Now().Add(10 * time.Second)
	for waitersOf(s.coal, key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", waitersOf(s.coal, key), n)
		}
		time.Sleep(time.Millisecond)
	}
	ctl.release()
	wg.Wait()

	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(resps[i].Databases, resps[0].Databases) ||
			resps[i].Certainty != resps[0].Certainty ||
			resps[i].Probes != resps[0].Probes {
			t.Fatalf("request %d diverged: %+v vs %+v", i, resps[i], resps[0])
		}
		if resps[i].Fanout != n {
			t.Errorf("request %d fanout %d, want %d", i, resps[i].Fanout, n)
		}
		if !resps[i].Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
}

// probingQueries picks up to n test queries whose RD-only certainty is
// below 0.999, so a full-tier selection at that threshold must issue
// live probes (and, in these tests, block on the gate).
func probingQueries(t testing.TB, ms *metaprobe.Metasearcher, qs []string, n int) []string {
	t.Helper()
	var out []string
	for _, q := range qs {
		if _, e, err := ms.Select(q, 3, metaprobe.Absolute); err == nil && e < 0.999 {
			out = append(out, q)
			if len(out) == n {
				return out
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no test query needs probes at threshold 0.999")
	}
	return out
}

// TestDoClientErrors: caller mistakes error out instead of degrading.
func TestDoClientErrors(t *testing.T) {
	s, _, qs := buildTestServer(t, Config{})
	if _, err := s.Do(context.Background(), SelectRequest{Query: qs[0], Tenant: "nobody"}); err == nil {
		t.Error("unknown tenant accepted")
	} else if !isClientError(err) {
		t.Errorf("unknown tenant classed as server error: %v", err)
	}
	if _, err := s.Do(context.Background(), SelectRequest{Query: qs[0], Metric: "bogus"}); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := s.Do(context.Background(), SelectRequest{}); err == nil {
		t.Error("empty query accepted")
	}
}

// TestDrainLifecycle: draining flips readiness, rejects new work, and
// Drain returns once in-flight requests finish.
func TestDrainLifecycle(t *testing.T) {
	s, _, qs := buildTestServer(t, Config{})
	if err := s.ready(); err != nil {
		t.Fatalf("trained single-tenant server not ready: %v", err)
	}
	if _, err := s.Do(context.Background(), SelectRequest{Query: qs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with idle server: %v", err)
	}
	if err := s.ready(); err == nil {
		t.Error("draining server reports ready")
	}
	if _, err := s.Do(context.Background(), SelectRequest{Query: qs[0]}); !errors.Is(err, errDraining) {
		t.Errorf("request during drain returned %v, want errDraining", err)
	}
}

// TestModelsInfoSkew: /debug/model's backing view reports one entry
// per tenant and coherent skew bounds.
func TestModelsInfoSkew(t *testing.T) {
	msA, _ := buildTestMetasearcher(t, nil, nil)
	msB, _ := buildTestMetasearcher(t, nil, nil)
	s := New(Config{})
	if err := s.AddTenant("alpha", msA); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant("beta", msB); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Advance beta's model chain so the tenants skew.
	if err := msB.Train([]string{"cancer treatment", "heart disease"}); err != nil {
		t.Fatal(err)
	}

	info := s.modelsInfo()
	if len(info.Tenants) != 2 || info.Skew.Tenants != 2 {
		t.Fatalf("got %d tenants (skew %d), want 2", len(info.Tenants), info.Skew.Tenants)
	}
	for _, name := range []string{"alpha", "beta"} {
		ti, ok := info.Tenants[name]
		if !ok || ti.Tenant != name || !ti.Trained {
			t.Fatalf("tenant %q missing or untrained: %+v", name, ti)
		}
	}
	if info.Tenants["beta"].Version <= info.Tenants["alpha"].Version {
		t.Errorf("beta (v%d) should out-version alpha (v%d) after retraining",
			info.Tenants["beta"].Version, info.Tenants["alpha"].Version)
	}
	if info.Skew.MinVersion != info.Tenants["alpha"].Version ||
		info.Skew.MaxVersion != info.Tenants["beta"].Version {
		t.Errorf("skew bounds [%d, %d] don't match tenant versions %+v",
			info.Skew.MinVersion, info.Skew.MaxVersion, info.Tenants)
	}
	if info.Skew.Untrained != 0 {
		t.Errorf("untrained = %d, want 0", info.Skew.Untrained)
	}
}

// TestAddTenantValidation covers the registration error paths.
func TestAddTenantValidation(t *testing.T) {
	ms, _ := buildTestMetasearcher(t, nil, nil)
	s := New(Config{})
	t.Cleanup(s.Close)
	if err := s.AddTenant("", ms); err == nil {
		t.Error("empty tenant name accepted")
	}
	if err := s.AddTenant("a", nil); err == nil {
		t.Error("nil metasearcher accepted")
	}
	if err := s.AddTenant("a", ms); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant("a", ms); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if got := s.tenantNames(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Tenants() = %v, want [a]", got)
	}
}
