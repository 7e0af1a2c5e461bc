package ops_test

import (
	"net/http"
	"testing"

	"metaprobe/internal/obs"
	"metaprobe/internal/obs/ops"
	"metaprobe/internal/obs/ops/opstest"
	"metaprobe/internal/obs/prof"
	"metaprobe/internal/obs/span"
)

// TestMountOneRoutePerSink mounts the tree with every sink, with none,
// and with each sink alone: a route exists iff its sink does.
func TestMountOneRoutePerSink(t *testing.T) {
	captor, err := prof.New(prof.Config{})
	if err != nil {
		t.Fatal(err)
	}
	all := ops.Sinks{
		Metrics:     obs.NewRegistry(),
		Spans:       span.NewTracer(0),
		SLO:         obs.NewSLO(obs.SLOConfig{}),
		Calibration: obs.NewCalibration(0),
		Profiles:    captor,
		Model:       func() any { return map[string]int{"version": 1} },
	}
	cases := map[string]ops.Sinks{
		"all":         all,
		"none":        {},
		"metrics":     {Metrics: all.Metrics},
		"spans":       {Spans: all.Spans},
		"slo":         {SLO: all.SLO},
		"calibration": {Calibration: all.Calibration},
		"profiles":    {Profiles: all.Profiles},
		"model":       {Model: all.Model},
	}
	for name, sinks := range cases {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			ops.Mount(mux, sinks)
			opstest.CheckRoutes(t, mux, sinks)
		})
	}
}
