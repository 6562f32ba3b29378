package parimg_test

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"parimg"
	"parimg/internal/obs"
)

// TestParMetricsPhasesCoverTotal pins the headline acceptance property of
// the measured side: the recorded top-level phase wall times of one
// host-parallel labeling sum to within 5% of the end-to-end wall time.
// Wall clocks on shared machines are noisy, so one clean attempt out of
// five passes.
func TestParMetricsPhasesCoverTotal(t *testing.T) {
	im, err := parimg.GeneratePattern(parimg.DualSpiral, 512)
	if err != nil {
		t.Fatal(err)
	}
	eng := parimg.NewParallelEngine(4)
	rec := parimg.NewMetricsRecorder()
	eng.SetObserver(rec)
	out, err := parimg.NewLabels(im.N)
	if err != nil {
		t.Fatal(err)
	}

	var best float64
	for attempt := 0; attempt < 5; attempt++ {
		rec.Reset()
		start := time.Now()
		_, err := eng.LabelIntoContext(context.Background(), im, parimg.Conn8, parimg.Binary, out)
		total := time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatal(err)
		}
		m := rec.Snapshot()
		m.TotalNS = total
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		covered := float64(m.WallPhaseNS()) / float64(total)
		if covered > best {
			best = covered
		}
		if covered >= 0.95 && covered <= 1.0 {
			for _, name := range []string{"strip_label", "border_merge", "relabel"} {
				if m.WallPhaseNS(name) <= 0 {
					t.Errorf("phase %q not recorded", name)
				}
			}
			return
		}
	}
	t.Errorf("phase wall times cover %.1f%% of the end-to-end time, want >= 95%%", 100*best)
}

// TestSimMetricsModelPhasesAndComm pins the modeled side: the top-level
// modeled phases of a simulated labeling sum to the run's SimTime exactly
// (rank-0 barrier marks partition the run), and the communication volume
// is attributed to the labeling's primitives.
func TestSimMetricsModelPhasesAndComm(t *testing.T) {
	sim, err := parimg.NewSimulator(16, parimg.CM5)
	if err != nil {
		t.Fatal(err)
	}
	rec := parimg.NewMetricsRecorder()
	sim.SetObserver(rec)
	im, err := parimg.GeneratePattern(parimg.DualSpiral, 256)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Label(context.Background(), im, parimg.LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := m.ModelPhaseS()
	if rel := math.Abs(sum-res.Report.SimTime) / res.Report.SimTime; rel > 1e-6 {
		t.Errorf("modeled phases sum to %.9f s, SimTime is %.9f s (rel err %.2g)",
			sum, res.Report.SimTime, rel)
	}
	for _, name := range []string{"init", "merge", "final_update"} {
		if m.ModelPhaseS(name) <= 0 {
			t.Errorf("modeled phase %q not recorded", name)
		}
	}
	comm := make(map[string]parimg.CommStat, len(m.Comm))
	for _, c := range m.Comm {
		comm[c.Name] = c
	}
	for _, name := range []string{"border_fetch", "change_dist"} {
		c, ok := comm[name]
		if !ok || c.Taus <= 0 || c.Words <= 0 {
			t.Errorf("comm primitive %q missing or empty: %+v", name, c)
		}
	}
}

// TestSimHistogramMetrics checks the histogram pipeline's modeled phases
// and its transpose/collect communication attribution.
func TestSimHistogramMetrics(t *testing.T) {
	sim, err := parimg.NewSimulator(16, parimg.CM5)
	if err != nil {
		t.Fatal(err)
	}
	rec := parimg.NewMetricsRecorder()
	sim.SetObserver(rec)
	im, err := parimg.RandomGrey(128, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Histogram(context.Background(), im, 256)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := m.ModelPhaseS()
	if rel := math.Abs(sum-res.Report.SimTime) / res.Report.SimTime; rel > 1e-6 {
		t.Errorf("modeled phases sum to %.9f s, SimTime is %.9f s", sum, res.Report.SimTime)
	}
	for _, name := range []string{"tally", "rearrange_combine", "collect"} {
		if m.ModelPhaseS(name) <= 0 {
			t.Errorf("modeled phase %q not recorded", name)
		}
	}
	var sawTranspose, sawCollect bool
	for _, c := range m.Comm {
		switch c.Name {
		case "transpose", "truncated_transpose":
			sawTranspose = true
		case "collect":
			sawCollect = true
		}
	}
	if !sawTranspose || !sawCollect {
		t.Errorf("histogram comm attribution incomplete: %+v", m.Comm)
	}
}

// TestMetricsFlagSmoke is the CI smoke test for the -metrics flag: run the
// actual imgcc binary on a small pattern for both host-parallel and
// simulator backends and validate the emitted JSON against the schema
// (obs.ReadFile validates on read).
func TestMetricsFlagSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/imgcc; skipped in -short mode")
	}
	dir := t.TempDir()

	parPath := filepath.Join(dir, "par.json")
	runImgcc(t, "-pattern", "four-squares", "-n", "128", "-backend", "par",
		"-workers", "2", "-top", "0", "-metrics", parPath)
	m, err := obs.ReadFile(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != "par" || m.Workers != 2 ||
		m.N != 128 || m.Image != "four-squares" {
		t.Errorf("par metrics context fields wrong: %+v", m)
	}
	if len(m.Phases) == 0 || m.TotalNS <= 0 || m.Counters["runs"] == 0 {
		t.Errorf("par metrics measurements missing: %+v", m)
	}

	simPath := filepath.Join(dir, "sim.json")
	runImgcc(t, "-pattern", "four-squares", "-n", "128", "-backend", "sim",
		"-p", "4", "-top", "0", "-metrics", simPath)
	m, err = obs.ReadFile(simPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != "sim" || m.Procs != 4 || m.SimTimeS <= 0 {
		t.Errorf("sim metrics context fields wrong: %+v", m)
	}
	if len(m.Phases) == 0 || len(m.Comm) == 0 {
		t.Errorf("sim metrics measurements missing: %+v", m)
	}
}

func runImgcc(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/imgcc"}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("imgcc %v: %v", args, err)
	}
}
