package server

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPerTenantModelSwapIsolation checks that a model hot-swap on one
// tenant stays contained to that tenant: its version chain advances
// (invalidating its cached selection shells and RD tables) while the
// other tenant's version — and both tenants' answers — are untouched.
// The reloaded snapshot holds the same EDs, so any drift in answers
// would mean a stale or torn selection served across the swap.
func TestPerTenantModelSwapIsolation(t *testing.T) {
	msA, qs := buildTestMetasearcher(t, nil, nil)
	msB, _ := buildTestMetasearcher(t, nil, nil)
	s := New(Config{})
	t.Cleanup(s.Close)
	if err := s.AddTenant("a", msA); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant("b", msB); err != nil {
		t.Fatal(err)
	}

	// A threshold this low is met without probing, so answers are a
	// deterministic function of the serving model.
	ask := func(tenant, query string) []string {
		t.Helper()
		resp, err := s.Do(context.Background(), SelectRequest{Tenant: tenant, Query: query, K: 2, Threshold: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Databases
	}
	type answer struct{ a, b []string }
	before := make([]answer, 0, 8)
	for _, q := range qs[:8] {
		before = append(before, answer{ask("a", q), ask("b", q)})
	}
	preInfo := s.modelsInfo()

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := msA.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	if err := msA.ReloadModel(path); err != nil {
		t.Fatal(err)
	}

	info := s.modelsInfo()
	if got, want := info.Tenants["a"].Version, preInfo.Tenants["a"].Version+1; got != want {
		t.Fatalf("tenant a at version %d after reload, want %d", got, want)
	}
	if got, want := info.Tenants["b"].Version, preInfo.Tenants["b"].Version; got != want {
		t.Fatalf("tenant b moved to version %d, want %d (no reload)", got, want)
	}
	for i, q := range qs[:8] {
		if got := ask("a", q); !reflect.DeepEqual(got, before[i].a) {
			t.Fatalf("tenant a answer for %q changed across reload: %v vs %v", q, got, before[i].a)
		}
		if got := ask("b", q); !reflect.DeepEqual(got, before[i].b) {
			t.Fatalf("tenant b answer for %q changed across a's reload: %v vs %v", q, got, before[i].b)
		}
	}
}
