package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the benchmark's declaration, relative to this
// directory (go run -C benchmark . and go test both run here).
const benchmarkJSON = "../BENCHMARK.json"

// metricSpec is one declared metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparison and the
// self-test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads an --out file into workload → metric → values, one
// value per untraced run.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Result.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's definition).
// Fewer than two values have no spread.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	data := sortedCopy(values)
	q := func(i int) float64 {
		m := len(data) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(data)-1 {
			j = len(data) - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	s := (q(3) - q(1)) / med
	if s < 0 {
		s = -s
	}
	return s
}

// compareFiles prints one row per (workload, end-to-end metric):
// regressed when the change's median is worse than the parent's by
// more than the metric's bound, unresolved when it is not but either
// side's run-to-run spread is wider than the bound, ok otherwise.
func compareFiles(out io.Writer, specPath, parentPath, changePath string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := loadRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-11s %-20s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "parent", "change", "worse", "bound", "spreadP", "spreadC", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent[w.Name][m.Name], change[w.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(out, "%-11s %-20s %12s %12s %8s %7s %8s %8s  %s\n", w.Name, m.Name, "-", "-", "-", "-", "-", "-", "missing")
				continue
			}
			pm, cm := medianOf(p), medianOf(c)
			worse := (cm - pm) / pm
			if m.Better == "higher" {
				worse = -worse
			}
			sp, sc := spread(p), spread(c)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case sp > m.Bound || sc > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-11s %-20s %12.6g %12.6g %+7.2f%% %6.1f%% %7.2f%% %7.2f%%  %s (n=%d,%d)\n",
				w.Name, m.Name, pm, cm, 100*worse, 100*m.Bound, 100*sp, 100*sc, verdict, len(p), len(c))
		}
	}
	return regressed, nil
}

// medianOf is the conventional median (mean of the middle two for an
// even count), as the driver takes it over runs.
func medianOf(values []float64) float64 {
	data := sortedCopy(values)
	n := len(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}
