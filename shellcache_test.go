package metaprobe

import (
	"testing"

	"metaprobe/internal/core"
)

// TestShellCacheRecycling pins the selection-shell pool's ownership
// rules: a shell handed out by selection() is never handed out again
// until it is recycled, and recycled shells are reused for later
// queries instead of allocating fresh selections. (A sync.Pool may drop
// a shell — under the race detector it does so at random — so reuse is
// asserted over many rounds, not for one particular Put.)
func TestShellCacheRecycling(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	seen := map[*core.Selection]bool{}
	reused := 0
	for round := 0; round < 64; round++ {
		s1, v1, err := ms.selection(test[round%len(test)], Absolute, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != ms.host.View() {
			t.Fatal("selection filled from a non-serving version")
		}
		s2, _, err := ms.selection(test[(round+1)%len(test)], Absolute, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if s1 == s2 {
			t.Fatal("two live selections share one shell")
		}
		for _, s := range []*core.Selection{s1, s2} {
			if seen[s] {
				reused++
			}
			seen[s] = true
			ms.recycleSelection(s)
		}
	}
	if reused == 0 {
		t.Fatal("no recycled shell was ever reused")
	}
}

// TestSelectionSteadyStateAllocs guards the template-reuse serving
// path: once shells are warm, one selection() → Best → recycle cycle
// must allocate nothing beyond the relevancy estimator's one-per-query
// tokenization (measured as the baseline below, not hard-coded).
func TestSelectionSteadyStateAllocs(t *testing.T) {
	ms, test := buildTestMetasearcher(t)
	qs := test[:4]
	for _, q := range qs {
		sel, _, err := ms.selection(q, Absolute, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		sel.BestView()
		ms.recycleSelection(sel)
	}
	var qi int
	baseline := testing.AllocsPerRun(200, func() {
		q := qs[qi%len(qs)]
		qi++
		for i := range ms.sums.Summaries {
			ms.rel.Estimate(ms.sums.Summaries[i], q)
		}
	})
	qi = 0
	cycle := testing.AllocsPerRun(200, func() {
		q := qs[qi%len(qs)]
		qi++
		sel, _, err := ms.selection(q, Absolute, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		sel.BestView()
		ms.recycleSelection(sel)
	})
	if cycle > baseline {
		t.Fatalf("steady-state selection cycle allocates %v objects per op, want at most the estimator's %v", cycle, baseline)
	}
}
