package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Add(CtrUFFinds, 5)
	r.AddComm("transpose", 1, 10)
	r.AddModelPhase("init", "", 1.0)
	r.EndPhase("strip_label", "", r.StartPhase())
	r.Reset()
	if got := r.Counter(CtrUFFinds); got != 0 {
		t.Fatalf("nil recorder counter = %d", got)
	}
	m := r.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatalf("nil snapshot invalid: %v", err)
	}
	if len(m.Phases) != 0 || len(m.Comm) != 0 || len(m.Counters) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", m)
	}
}

func TestNilRecorderAllocFree(t *testing.T) {
	var r *Recorder
	avg := testing.AllocsPerRun(100, func() {
		t0 := r.StartPhase()
		r.Add(CtrBorderLinks, 3)
		r.AddComm("x", 1, 1)
		r.EndPhase("p", "", t0)
		r.AddModelPhase("m", "", 0.5)
	})
	if avg != 0 {
		t.Fatalf("disabled recorder path allocates %.1f/op, want 0", avg)
	}
}

func TestNilStartPhaseIsZeroTime(t *testing.T) {
	var r *Recorder
	if !r.StartPhase().IsZero() {
		t.Fatal("nil StartPhase read the clock")
	}
}

func TestCountersAccumulateConcurrently(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(CtrUFFinds, 1)
				r.AddComm("transpose", 1, 4)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(CtrUFFinds); got != 8000 {
		t.Fatalf("uf_finds = %d, want 8000", got)
	}
	m := r.Snapshot()
	if len(m.Comm) != 1 || m.Comm[0].Taus != 8000 || m.Comm[0].Words != 32000 {
		t.Fatalf("comm = %+v", m.Comm)
	}
}

func TestPhaseRecording(t *testing.T) {
	r := NewRecorder()
	t0 := r.StartPhase()
	time.Sleep(time.Millisecond)
	r.EndPhase("strip_label", "", t0)
	r.AddModelPhase("merge[1]", "merge", 0.25)
	r.AddModelPhase("merge", "", 0.25)
	m := r.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(m.Phases))
	}
	if m.Phases[0].WallNS < int64(time.Millisecond) {
		t.Fatalf("strip_label = %dns, want >= 1ms", m.Phases[0].WallNS)
	}
	// Child phases do not contribute to the top-level sums.
	if got := m.ModelPhaseS(); got != 0.25 {
		t.Fatalf("top-level model sum = %v, want 0.25", got)
	}
	if got := m.WallPhaseNS("strip_label"); got != m.Phases[0].WallNS {
		t.Fatalf("WallPhaseNS(strip_label) = %d", got)
	}
}

// TestEndPhaseFoldsRepeats pins the fold that keeps a document's size
// independent of how often a phase ran: two EndPhase calls under one name
// and parent give one entry holding the summed time, a different parent
// keeps its own entry, and Reset forgets the folded entries.
func TestEndPhaseFoldsRepeats(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	r.EndPhase("band_decode", "", now.Add(-2*time.Millisecond))
	r.EndPhase("band_decode", "", now.Add(-3*time.Millisecond))
	r.EndPhase("band_decode", "pass", now)
	m := r.Snapshot()
	if len(m.Phases) != 2 {
		t.Fatalf("phases = %+v, want one band_decode entry per parent", m.Phases)
	}
	if got := m.Phases[0]; got.Name != "band_decode" || got.Parent != "" || got.WallNS < int64(5*time.Millisecond) {
		t.Fatalf("folded phase = %+v, want band_decode holding >= 5ms", got)
	}
	if got := m.WallPhaseNS("band_decode"); got != m.Phases[0].WallNS {
		t.Fatalf("WallPhaseNS(band_decode) = %d, want the folded %d", got, m.Phases[0].WallNS)
	}
	r.Reset()
	r.EndPhase("band_merge", "", r.StartPhase())
	r.EndPhase("band_decode", "", r.StartPhase())
	m = r.Snapshot()
	if len(m.Phases) != 2 || m.Phases[0].Name != "band_merge" || m.Phases[1].Name != "band_decode" {
		t.Fatalf("after Reset: phases = %+v, want fresh band_merge and band_decode entries", m.Phases)
	}
}

func TestResetStartsNewEpoch(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrRuns, 7)
	r.AddComm("collect", 2, 64)
	r.AddModelPhase("init", "", 1)
	r.Reset()
	m := r.Snapshot()
	if len(m.Phases) != 0 || len(m.Comm) != 0 || len(m.Counters) != 0 {
		t.Fatalf("reset left state: %+v", m)
	}
	// The recorder keeps working after a reset.
	r.Add(CtrRuns, 1)
	if got := r.Counter(CtrRuns); got != 1 {
		t.Fatalf("post-reset counter = %d", got)
	}
}

func TestValidateRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		m    Metrics
	}{
		{"bad schema", Metrics{Schema: "nope"}},
		{"unnamed phase", Metrics{Schema: Schema, Phases: []Phase{{}}}},
		{"negative wall", Metrics{Schema: Schema, Phases: []Phase{{Name: "x", WallNS: -1}}}},
		{"unknown parent", Metrics{Schema: Schema, Phases: []Phase{{Name: "x", Parent: "y"}}}},
		{"negative counter", Metrics{Schema: Schema, Counters: map[string]int64{"c": -1}}},
		{"unnamed comm", Metrics{Schema: Schema, Comm: []CommStat{{}}}},
		{"negative comm", Metrics{Schema: Schema, Comm: []CommStat{{Name: "t", Words: -1}}}},
		{"negative total", Metrics{Schema: Schema, TotalNS: -1}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.m)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrBorderPairs, 12)
	r.AddComm("border_fetch", 3, 96)
	t0 := r.StartPhase()
	r.EndPhase("border_merge", "", t0)
	m := r.Snapshot()
	m.Command, m.Backend = "imgcc", "par"
	m.Workers, m.Image, m.N = 4, "cross", 64
	m.TotalNS = 12345

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != "par" || got.Counters["border_pairs"] != 12 ||
		got.Comm[0].Name != "border_fetch" || got.Comm[0].Words != 96 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// The array form, as imgccd's /metrics serves it: every element is
	// validated.
	for _, c := range []struct {
		list  []*Metrics
		valid bool
	}{
		{[]*Metrics{m, got}, true},
		{[]*Metrics{m, {Schema: "other"}}, false},
	} {
		data, err := json.Marshal(c.list)
		if err != nil {
			t.Fatal(err)
		}
		listPath := filepath.Join(t.TempDir(), "list.json")
		if err := os.WriteFile(listPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFileList(listPath)
		switch {
		case c.valid && (err != nil || len(back) != 2 || back[1].Image != "cross"):
			t.Fatalf("ReadFileList = %d docs, %v; want both documents back", len(back), err)
		case !c.valid && err == nil:
			t.Fatal("ReadFileList accepted an array with an invalid document")
		}
	}
}

func TestSnapshotIsIndependentCopy(t *testing.T) {
	r := NewRecorder()
	r.AddModelPhase("init", "", 1)
	m := r.Snapshot()
	r.AddModelPhase("final_update", "", 2)
	if len(m.Phases) != 1 {
		t.Fatalf("snapshot aliased live state: %d phases", len(m.Phases))
	}
}

func TestCounterNamesAreStable(t *testing.T) {
	names := CounterNames()
	want := []string{"bands", "border_edges", "border_links", "border_pairs",
		"checkpoints", "grey_runs", "resume_band", "runs",
		"strip_components", "uf_finds"}
	if len(names) != len(want) {
		t.Fatalf("counter names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("counter names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		if strings.Contains(n, "(") {
			t.Fatalf("counter %q has no stable name", n)
		}
	}
}

func TestSchemaFieldNamesAreStable(t *testing.T) {
	m := Metrics{
		Schema: Schema, Command: "imgcc", Backend: "par", TotalNS: 1,
		Phases:   []Phase{{Name: "p", WallNS: 1}},
		Counters: map[string]int64{"uf_finds": 1},
		Comm:     []CommStat{{Name: "transpose", Taus: 1, Words: 2}},
	}
	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema"`, `"command"`, `"backend"`, `"total_ns"`,
		`"phases"`, `"name"`, `"wall_ns"`, `"counters"`, `"comm"`, `"taus"`, `"words"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON missing key %s: %s", key, data)
		}
	}
}
