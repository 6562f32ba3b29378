package main

import (
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the spreads are judged by,
// including its extrapolation on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	rate := metricSpec{Name: "mpix_s", Better: "higher", Bound: 0.1}
	lat := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 80, 120, 90, 110}
	for _, c := range []struct {
		name       string
		m          metricSpec
		base, cand []float64
		want       string
	}{
		{"same", rate, base, base, "ok"},
		{"within bound", rate, base, scale(base, 0.95), "ok"},
		{"throughput regressed", rate, base, scale(base, 0.8), "REGRESSED"},
		{"latency regressed", lat, base, scale(base, 1.2), "REGRESSED"},
		{"claim holds", rate, base, scale(base, 1.05), "improved"},
		{"too few pairs to claim", rate, base[:5], scale(base[:5], 1.05), "ok"},
		{"spread too wide", rate, noisy, scale(noisy, 0.97), "unresolved"},
		{"every run better, too few pairs to claim", lat, noisy[:5], scale(noisy[:5], 0.3), "better, every run"},
	} {
		if got := judge(c.m, c.base, c.cand); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}
