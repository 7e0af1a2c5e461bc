package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestCostAccountRoundTrip(t *testing.T) {
	acct := NewCostAccount()
	ctx := WithCost(context.Background(), acct)
	got := CostFromContext(ctx)
	if got != acct {
		t.Fatal("account did not round-trip through context")
	}
	if CostFromContext(context.Background()) != nil {
		t.Error("empty context returned an account")
	}

	got.AddProbe("PubMed", 30*time.Millisecond, false)
	got.AddProbe("PubMed", 10*time.Millisecond, true)
	got.AddProbe("CNN", 20*time.Millisecond, false)
	got.AddHedge()
	got.AddHedge()
	got.AddHedgeWin()
	got.AddCacheHit()
	got.AddBytes("PubMed", 2048)
	got.AddBytes("PubMed", 0) // ignored

	sum := acct.Summary()
	if sum.ProbesIssued != 3 {
		t.Errorf("probes = %d", sum.ProbesIssued)
	}
	if sum.HedgesLaunched != 2 || sum.HedgesWon != 1 || sum.HedgesWasted != 1 {
		t.Errorf("hedges = %+v", sum)
	}
	if sum.CacheHits != 1 || sum.BytesFetched != 2048 {
		t.Errorf("cache/bytes = %+v", sum)
	}
	if !approx(sum.WallMs, 60, 1e-9) {
		t.Errorf("wall = %v ms", sum.WallMs)
	}
	pm := sum.Backends["PubMed"]
	if pm.Probes != 2 || pm.Errors != 1 || pm.Bytes != 2048 || !approx(pm.WallMs, 40, 1e-9) {
		t.Errorf("PubMed backend = %+v", pm)
	}
	if cnn := sum.Backends["CNN"]; cnn.Probes != 1 || cnn.Errors != 0 {
		t.Errorf("CNN backend = %+v", cnn)
	}
}

func TestCostAccountNilSafety(t *testing.T) {
	var acct *CostAccount
	acct.AddProbe("x", time.Second, true)
	acct.AddHedge()
	acct.AddHedgeWin()
	acct.AddCacheHit()
	acct.AddBytes("x", 10)
	if sum := acct.Summary(); sum.ProbesIssued != 0 || sum.Backends != nil {
		t.Error("nil account reported state")
	}
	if ctx := WithCost(context.Background(), nil); CostFromContext(ctx) != nil {
		t.Error("WithCost(nil) attached something")
	}
}

func TestCostAccountConcurrent(t *testing.T) {
	acct := NewCostAccount()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				acct.AddProbe("db", time.Millisecond, false)
				acct.AddBytes("db", 1)
			}
		}()
	}
	wg.Wait()
	sum := acct.Summary()
	if sum.ProbesIssued != 800 || sum.BytesFetched != 800 {
		t.Errorf("summary = %+v", sum)
	}
}

func approx(got, want, eps float64) bool {
	d := got - want
	return d < eps && d > -eps
}
