package metaprobe

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"metaprobe/internal/core"
	"metaprobe/internal/hidden"
)

// delayDB adds a fixed latency to every search, so probe I/O time is
// deterministic enough to compare stage sums against the root span.
type delayDB struct {
	Database
	d time.Duration
}

func (d *delayDB) Search(query string, topK int) (hidden.Result, error) {
	time.Sleep(d.d)
	return d.Database.Search(query, topK)
}

// TestStageTotalsSumToSelectionSpan drives a traced selection with
// injected probe latency and checks the per-stage attribution: the
// root "selection" span carries one "stage" event per hot-path stage,
// every algorithmic stage is present, and the stage durations sum to
// approximately the root span's duration — nothing material is left
// unattributed, and nothing is double-counted.
func TestStageTotalsSumToSelectionSpan(t *testing.T) {
	reg := NewMetrics()
	tracer := NewSpanTracer(64)
	cfg := &Config{Metrics: reg, Spans: tracer}
	ms, queries := buildTestMetasearcherWith(t, cfg, func(i int, db Database) Database {
		return &delayDB{Database: db, d: 3 * time.Millisecond}
	})

	var res *SelectionResult
	var err error
	for _, q := range queries {
		res, err = ms.SelectWithCertaintyContext(context.Background(), q, 2, Partial, 0.999, -1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes > 0 {
			break
		}
	}
	if res == nil || res.Probes == 0 {
		t.Fatal("no query needed probing; cannot exercise the probe stage")
	}

	roots := tracer.Tree(res.TraceID)
	if len(roots) != 1 || roots[0].Span.Name != "selection" {
		t.Fatalf("want one selection root, got %v", roots)
	}
	root := roots[0].Span
	stages := map[string]float64{}
	for _, ev := range root.Events {
		if ev.Name != "stage" {
			continue
		}
		sec, perr := strconv.ParseFloat(ev.Attrs["seconds"], 64)
		if perr != nil {
			t.Fatalf("stage event with bad seconds %q", ev.Attrs["seconds"])
		}
		stages[ev.Attrs["stage"]] = sec
	}
	for _, want := range []string{"rd_convolve", "ecor_dp", "rank", "probe"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("root span missing stage event %q (have %v)", want, stages)
		}
	}

	var sum float64
	for _, sec := range stages {
		sum += sec
	}
	rootSec := root.Duration().Seconds()
	if sum > rootSec*1.10 {
		t.Errorf("stage sum %.4fs exceeds root span %.4fs — double counting", sum, rootSec)
	}
	// With 3ms injected probe latency the probe stage dominates the
	// span, so the attributed fraction must be high; a large gap means
	// some stage boundary was dropped.
	if sum < rootSec*0.70 {
		t.Errorf("stage sum %.4fs attributes only %.0f%% of root span %.4fs",
			sum, 100*sum/rootSec, rootSec)
	}

	// Acceptance: the stage histogram appears in the /metrics
	// exposition for every algorithmic stage.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, stage := range []string{"rd_convolve", "ecor_dp", "rank", "probe"} {
		if !strings.Contains(expo, `mp_selection_stage_seconds{stage="`+stage+`"`) {
			t.Errorf("exposition missing mp_selection_stage_seconds{stage=%q}", stage)
		}
	}
}

// TestStageAttributionDisabledByDefault: with no observability sink
// configured, selections are filled with the stage tally off — the
// zero-overhead path, whose stage boundaries read no clock.
func TestStageAttributionDisabledByDefault(t *testing.T) {
	ms, queries := buildTestMetasearcher(t)
	if ms.observed {
		t.Fatal("observability flag set with no sink configured")
	}
	sel, _, err := ms.selection(queries[0], Absolute, 2, ms.observed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Stages(); got != (core.StageTimes{}) {
		t.Fatalf("the stage tally is on with no sink: %+v", got)
	}
	ms.recycleSelection(sel)
	// The sequential path still works and reports no IDs.
	res, err := ms.SelectWithCertainty(queries[0], 2, Absolute, 0.9, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "" {
		t.Fatalf("disabled path minted selection ID %q", res.ID)
	}
}
