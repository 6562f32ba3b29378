package par

import (
	"fmt"
	"testing"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// TestLabelRecordsPhasesAndCounters verifies the measured side of the
// observability layer: with a recorder installed, LabelIntoContext reports
// the wall-clock phases of the run engine and operation counts consistent
// with the labeling it produced.
func TestLabelRecordsPhasesAndCounters(t *testing.T) {
	im := image.Generate(image.DualSpiral, 64)
	out := image.NewLabels(64)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e := NewEngine(w)
			r := obs.NewRecorder()
			e.SetObserver(r)
			comps := mustLabelInto(t, e, im, image.Conn8, seq.Binary, out)

			m := r.Snapshot()
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			want := []string{"strip_label"}
			if w > 1 {
				want = append(want, "border_merge", "relabel", "cleanup")
			}
			for _, name := range want {
				found := false
				for _, ph := range m.Phases {
					if ph.Name == name {
						found = true
						if ph.WallNS < 0 {
							t.Errorf("phase %s has negative wall time", name)
						}
					}
				}
				if !found {
					t.Errorf("phase %s not recorded (got %+v)", name, m.Phases)
				}
			}
			if got := m.Counters["strip_components"]; got < int64(comps) {
				t.Errorf("strip_components = %d, want >= %d", got, comps)
			}
			if w > 1 {
				stripComps := m.Counters["strip_components"]
				links := m.Counters["border_links"]
				if int(stripComps-links) != comps {
					t.Errorf("components: strips %d - links %d != %d",
						stripComps, links, comps)
				}
				if m.Counters["uf_finds"] == 0 {
					t.Error("uf_finds not counted")
				}
			}
			if m.Counters["runs"] == 0 {
				t.Error("runs not counted")
			}
		})
	}
}

// TestGreyLabelCountsGreyRuns verifies the grey run engine tallies its
// extracted runs under the dedicated grey_runs counter — distinct from the
// binary runs counter, so a metrics reader can tell which extractor ran —
// and that the binary counter stays untouched in Grey mode.
func TestGreyLabelCountsGreyRuns(t *testing.T) {
	im := image.RandomGrey(64, 8, 5)
	out := image.NewLabels(64)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e := NewEngine(w)
			r := obs.NewRecorder()
			e.SetObserver(r)
			mustLabelInto(t, e, im, image.Conn8, seq.Grey, out)
			m := r.Snapshot()
			if m.Counters["grey_runs"] == 0 {
				t.Errorf("grey_runs not counted: %+v", m.Counters)
			}
			if m.Counters["runs"] != 0 {
				t.Errorf("binary runs counter hit in grey mode: %+v", m.Counters)
			}
		})
	}
}

// TestHistogramRecordsPhases covers the histogram phase marks.
func TestHistogramRecordsPhases(t *testing.T) {
	im := image.RandomGrey(64, 16, 7)
	e := NewEngine(4)
	r := obs.NewRecorder()
	e.SetObserver(r)
	if _, err := e.HistogramContext(nil, im, 16); err != nil {
		t.Fatal(err)
	}
	m := r.Snapshot()
	if got := m.WallPhaseNS("tally", "tree_merge"); got <= 0 {
		t.Fatalf("histogram phases not timed: %+v", m.Phases)
	}
}

// TestObserverOffLeavesNoTrace pins that running with the observer removed
// records nothing into a previously installed recorder.
func TestObserverOffLeavesNoTrace(t *testing.T) {
	im := image.Generate(image.Cross, 32)
	out := image.NewLabels(32)
	e := NewEngine(2)
	r := obs.NewRecorder()
	e.SetObserver(r)
	mustLabelInto(t, e, im, image.Conn8, seq.Binary, out)
	e.SetObserver(nil)
	r.Reset()
	mustLabelInto(t, e, im, image.Conn8, seq.Binary, out)
	m := r.Snapshot()
	if len(m.Phases) != 0 || len(m.Counters) != 0 {
		t.Fatalf("observer off still recorded: %+v", m)
	}
}
