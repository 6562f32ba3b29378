package obs

import (
	"sync"
	"testing"
)

// TestAggObserve checks the by-name summation contract: top-level phases
// merge in first-observed order, child phases are skipped, counters sum,
// and the synthetic documents/aborted_documents counters track documents
// without clobbering a summed engine counter of the same family ("runs").
func TestAggObserve(t *testing.T) {
	a := NewAgg()
	a.Observe(&Metrics{
		Schema: Schema, TotalNS: 100,
		Phases: []Phase{
			{Name: "decode", WallNS: 10},
			{Name: "label", WallNS: 80},
			{Name: "strip_label", Parent: "label", WallNS: 70}, // child: skipped
		},
		Counters: map[string]int64{"runs": 5},
	})
	a.Observe(&Metrics{
		Schema: Schema, TotalNS: 50, Aborted: "deadline",
		Phases: []Phase{
			{Name: "label", WallNS: 30}, // merges into the existing entry
			{Name: "census", WallNS: 5}, // new name appends
		},
		Counters: map[string]int64{"runs": 5, "components": 7},
	})
	a.Observe(nil) // ignored

	if got := a.Count(); got != 2 {
		t.Fatalf("Count() = %d, want 2", got)
	}
	m := a.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatalf("aggregate document invalid: %v", err)
	}
	if m.TotalNS != 150 {
		t.Fatalf("TotalNS = %d, want 150", m.TotalNS)
	}
	wantPhases := []Phase{{Name: "decode", WallNS: 10}, {Name: "label", WallNS: 110}, {Name: "census", WallNS: 5}}
	if len(m.Phases) != len(wantPhases) {
		t.Fatalf("got %d phases %v, want %d", len(m.Phases), m.Phases, len(wantPhases))
	}
	for i, want := range wantPhases {
		if m.Phases[i] != want {
			t.Fatalf("phase %d = %+v, want %+v", i, m.Phases[i], want)
		}
	}
	for key, want := range map[string]int64{
		"runs": 10, "components": 7, "documents": 2, "aborted_documents": 1,
	} {
		if m.Counters[key] != want {
			t.Fatalf("counter %q = %d, want %d", key, m.Counters[key], want)
		}
	}
}

// TestAggSnapshotIsolated checks the caller owns the snapshot: mutating a
// returned document must not leak into later snapshots, and an empty
// aggregate snapshots to a valid zero document.
func TestAggSnapshotIsolated(t *testing.T) {
	a := NewAgg()
	empty := a.Snapshot()
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty aggregate invalid: %v", err)
	}
	if empty.Counters["documents"] != 0 {
		t.Fatalf("empty aggregate documents = %d, want 0", empty.Counters["documents"])
	}
	empty.Counters["queue_depth"] = 42 // caller extends its copy...
	if m := a.Snapshot(); m.Counters["queue_depth"] != 0 {
		t.Fatal("caller mutation leaked into the aggregator")
	}
}

// TestAggConcurrent hammers Observe from many goroutines under the race
// detector and checks nothing is lost.
func TestAggConcurrent(t *testing.T) {
	a := NewAgg()
	const G, per = 8, 50
	var wg sync.WaitGroup
	wg.Add(G)
	for g := 0; g < G; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Observe(&Metrics{
					Schema: Schema, TotalNS: 1,
					Phases:   []Phase{{Name: "label", WallNS: 1}},
					Counters: map[string]int64{"c": 1},
				})
			}
		}()
	}
	wg.Wait()
	m := a.Snapshot()
	if m.Counters["documents"] != G*per || m.Counters["c"] != G*per || m.TotalNS != G*per {
		t.Fatalf("lost updates: %+v", m.Counters)
	}
}
