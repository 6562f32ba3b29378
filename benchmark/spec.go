package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json: its name, unit, which
// direction is better, and (end-to-end metrics only) the share of the
// baseline median by which it may worsen before a change is a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the single
// source of the workload names, metric names, units, directions and
// regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or one of its
// parents (the benchmark runs from the repository root, its tests from
// benchmark/).
func loadSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parents")
		}
		dir = parent
	}
}

// metrics returns the metric list a pass reports: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last: whether every output
// matched its oracle, how many operations were attempted and failed, and
// the pass's metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of the results file: a result with the run it came
// from, plus details that are reported but not gated (tail latencies with
// their sample counts, absolute phase times).
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	result
	Detail map[string]float64 `json:"detail,omitempty"`
}

// attach turns raw values into the reported metric map, requiring exactly
// the spec's metrics with finite values: a missing, extra or non-finite
// metric is a benchmark bug, not a measurement.
func attach(specs []metricSpec, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4)
// ("exclusive"), the rule the spreads are judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method verbatim, clamping included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (an unexercised layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
