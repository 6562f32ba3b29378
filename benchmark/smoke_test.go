package main

import (
	"context"
	"testing"
)

// TestShortRunsEveryWorkload runs all four workloads in process at toy
// sizes, untraced and traced, the way -short does: every output must match
// its oracle, every metric of BENCHMARK.json (bar peak_rss_mib, which only
// a child process can measure) must be reported, and the traced pass must
// leave spans whose self time never exceeds their duration.
func TestShortRunsEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 3, seconds: 0.2, short: true, work: t.TempDir()}
	for _, name := range workloadNames {
		recs, traces, err := benchWorkload(context.Background(), spec, o, name, []bool{false, true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, r.Trace, r.Correct, r.Attempted, r.Failed)
			}
			want := len(spec.metrics(r.Trace))
			if !r.Trace {
				want-- // peak_rss_mib
			}
			if len(r.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, r.Trace, len(r.Metrics), want)
			}
		}
		if len(traces) != 1 || len(traces[0].Spans) == 0 {
			t.Fatalf("%s: traced pass left no spans", name)
		}
		for span, self := range traces[0].SelfNS {
			if total := traces[0].TotalNS[span]; self < 0 || self > total {
				t.Errorf("%s: span %s self time %d outside [0, %d]", name, span, self, total)
			}
		}
	}
}
