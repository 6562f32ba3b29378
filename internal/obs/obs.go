// Package obs is the phase-level observability layer of the repository: a
// zero-dependency metrics recorder that the execution engines (the BDM
// simulator of internal/bdm + internal/cc + internal/hist and the
// host-parallel engine of internal/par) thread their per-phase timings,
// operation counters and modeled communication volumes through.
//
// The paper's experimental contribution is a per-phase breakdown of
// histogramming and connected components against the BDM cost model
// Tcomm(n,p) = tau + m: where the time goes (local labeling vs border merge
// rounds vs relabeling) and how measured times track the model. A Recorder
// captures exactly that split for one run:
//
//   - wall-clock phases, measured with monotonic timers around each engine
//     phase of a host-parallel run (strip labeling, border merge, the
//     final paint, named "relabel");
//   - modeled phases, the simulated seconds of each stage of a BDM run
//     (initialization, each merge iteration, the final update);
//   - modeled communication volume per primitive: the number of charged
//     latencies (tau count, one per completed Sync batch) and the words
//     moved, attributed to the communication label active at Sync time
//     (transpose, broadcast, collect, border fetch, change distribution);
//   - operation counters (union-find finds and unites, border pairs,
//     extracted runs), accumulated atomically.
//
// The disabled path is allocation-free and near-free in time: a nil
// *Recorder is a valid recorder whose methods are no-ops, so engine code
// calls them unconditionally and the alloc regression budgets of
// internal/par hold with metrics off. Snapshot converts a Recorder into a
// Metrics document, the stable JSON schema behind the -metrics flag of the
// imgcc and imghist commands, imgccd's /metrics endpoint and the
// cmd/phasereport tables.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Schema is the identifier every Metrics document carries in its "schema"
// field; readers reject documents with a different value.
const Schema = "parimg-metrics/v1"

// Counter identifies one of the fixed operation counters a Recorder
// accumulates. The fixed enumeration keeps the hot-path Add a single atomic
// increment with no map lookups or allocation.
type Counter int

// The operation counters of the labeling engines.
const (
	// CtrStripComponents counts components found by strip-local labeling
	// before the border merge (the sum of per-strip component counts).
	CtrStripComponents Counter = iota
	// CtrBorderPairs counts raw adjacencies examined across strip or band
	// boundaries during the border merge's edge extraction: adjacent
	// like-colored pixel pairs, in the resident engine and the streaming
	// band merge alike.
	CtrBorderPairs
	// CtrBorderEdges counts deduplicated boundary union edges the border
	// merge's extraction pass collected (the length of the edge list the
	// seam forest actually resolves); CtrBorderPairs minus
	// CtrBorderEdges is the work the dedup saved.
	CtrBorderEdges
	// CtrBorderLinks counts border unions that actually linked two
	// distinct sets (strip components minus links = final components).
	CtrBorderLinks
	// CtrUFFinds counts the seam-forest lookups of the final paint: one
	// per run of each strip's first and last rows, made before the paint
	// writes every run once with its merged root.
	CtrUFFinds
	// CtrRuns counts maximal foreground runs extracted by the run-based
	// strip engine in binary mode.
	CtrRuns
	// CtrGreyRuns counts maximal equal-grey-level runs (segments)
	// extracted by the run-based strip engine in grey mode.
	CtrGreyRuns
	// CtrBands counts band windows the out-of-core streaming pipeline
	// decoded and labeled (each pass over the image counts its own bands).
	CtrBands
	// CtrCheckpoints counts durable checkpoint records the streaming
	// pipeline committed (temp-file + fsync + rename each).
	CtrCheckpoints
	// CtrResumeBand is the resumed-from-band gauge: the band index the
	// streaming census pass restarted at after restoring a checkpoint
	// (recorded once per resumed run; absent for fresh runs).
	CtrResumeBand

	numCounters
)

// String returns the counter's stable JSON key.
func (c Counter) String() string {
	switch c {
	case CtrStripComponents:
		return "strip_components"
	case CtrBorderPairs:
		return "border_pairs"
	case CtrBorderEdges:
		return "border_edges"
	case CtrBorderLinks:
		return "border_links"
	case CtrUFFinds:
		return "uf_finds"
	case CtrRuns:
		return "runs"
	case CtrGreyRuns:
		return "grey_runs"
	case CtrBands:
		return "bands"
	case CtrCheckpoints:
		return "checkpoints"
	case CtrResumeBand:
		return "resume_band"
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Phase is one recorded span of a run: either a measured wall-clock phase
// of the host-parallel engine (WallNS set) or a modeled phase of a
// simulated run (ModelS set, in simulated seconds). Parent names the
// enclosing phase for hierarchical spans (e.g. each merge iteration of a
// simulated labeling is a child of "merge"); top-level phases leave it
// empty. Summing the top-level spans of one kind reconstructs the run's
// end-to-end time of that kind.
type Phase struct {
	// Name identifies the phase (e.g. "strip_label", "border_merge",
	// "init", "merge[1]", "final_update").
	Name string `json:"name"`
	// Parent is the enclosing phase's name, empty for top-level phases.
	Parent string `json:"parent,omitempty"`
	// WallNS is the measured wall-clock duration in nanoseconds
	// (host-parallel runs).
	WallNS int64 `json:"wall_ns,omitempty"`
	// ModelS is the modeled duration in simulated seconds (BDM runs).
	ModelS float64 `json:"model_s,omitempty"`
}

// CommStat is the modeled communication volume attributed to one
// primitive or labeled region of a simulated run.
type CommStat struct {
	// Name is the communication label (e.g. "transpose", "broadcast",
	// "collect", "border_fetch", "change_dist").
	Name string `json:"name"`
	// Taus is the number of charged message latencies: each Sync that
	// completed at least one outstanding prefetch costs one tau, summed
	// over all processors.
	Taus int64 `json:"taus"`
	// Words is the total number of 32-bit words the primitive moved,
	// summed over all processors (active transfers only; passive
	// full-duplex overlap is not double-counted).
	Words int64 `json:"words"`
}

// Metrics is the observability document of one run: the JSON written by
// the -metrics flag of imgcc and imghist, served by imgccd's /metrics and
// consumed by cmd/phasereport. Context fields (Command through K) are
// filled by the caller; measurement fields come from Recorder.Snapshot and
// the run's report.
type Metrics struct {
	// Schema identifies the document format; always the Schema constant.
	Schema string `json:"schema"`
	// Command is the emitting command ("imgcc", "imghist", "imgccd").
	Command string `json:"command,omitempty"`
	// Backend is the execution backend ("sim", "par", "seq" or "stream").
	Backend string `json:"backend,omitempty"`
	// Machine is the simulated machine profile name (sim backend only).
	Machine string `json:"machine,omitempty"`
	// Workers is the host-parallel worker count (par backend only).
	Workers int `json:"workers,omitempty"`
	// Procs is the simulated processor count (sim backend only).
	Procs int `json:"procs,omitempty"`
	// Image names the input (pattern name, "darpa", "random", a file).
	Image string `json:"image,omitempty"`
	// N is the image side in pixels.
	N int `json:"n,omitempty"`
	// K is the number of grey levels (histogram runs only).
	K int `json:"k,omitempty"`
	// TotalNS is the measured end-to-end wall time in nanoseconds; the
	// top-level wall phases sum to within a few percent of it.
	TotalNS int64 `json:"total_ns,omitempty"`
	// SimTimeS, CompTimeS and CommTimeS are the modeled end-to-end,
	// computation and communication seconds of a simulated run.
	SimTimeS  float64 `json:"sim_time_s,omitempty"`
	CompTimeS float64 `json:"comp_time_s,omitempty"`
	CommTimeS float64 `json:"comm_time_s,omitempty"`
	// Aborted carries the teardown cause when the run ended early (a
	// processor panic, a canceled context, a barrier watchdog stall);
	// empty for runs that completed. An aborted document is still valid:
	// the phases recorded before the abort are kept, closed by a
	// zero-length "aborted" span.
	Aborted string `json:"aborted,omitempty"`
	// Phases are the recorded spans, in first-recorded order. Wall phases
	// recorded more than once under one name and parent are folded into a
	// single entry holding their summed time, so a document's size is set
	// by the phases a run has, not by how often it ran them.
	Phases []Phase `json:"phases,omitempty"`
	// Counters maps counter names to accumulated values; zero counters
	// are omitted.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Comm is the modeled per-primitive communication volume, in first-
	// recorded order.
	Comm []CommStat `json:"comm,omitempty"`
}

// Validate checks the structural invariants of a Metrics document: the
// schema tag, non-negative measurements, named phases whose parents exist,
// and named communication entries. It is the schema check behind the CI
// -metrics smoke test.
func (m *Metrics) Validate() error {
	if m == nil {
		return fmt.Errorf("obs: nil metrics")
	}
	if m.Schema != Schema {
		return fmt.Errorf("obs: schema %q, want %q", m.Schema, Schema)
	}
	if m.TotalNS < 0 || m.SimTimeS < 0 || m.CompTimeS < 0 || m.CommTimeS < 0 {
		return fmt.Errorf("obs: negative total time")
	}
	names := make(map[string]bool, len(m.Phases))
	for _, ph := range m.Phases {
		if ph.Name == "" {
			return fmt.Errorf("obs: unnamed phase")
		}
		if ph.WallNS < 0 || ph.ModelS < 0 {
			return fmt.Errorf("obs: phase %q has a negative duration", ph.Name)
		}
		names[ph.Name] = true
	}
	for _, ph := range m.Phases {
		if ph.Parent != "" && !names[ph.Parent] {
			return fmt.Errorf("obs: phase %q names unknown parent %q", ph.Name, ph.Parent)
		}
	}
	for name, v := range m.Counters {
		if name == "" {
			return fmt.Errorf("obs: unnamed counter")
		}
		if v < 0 {
			return fmt.Errorf("obs: counter %q is negative", name)
		}
	}
	for _, c := range m.Comm {
		if c.Name == "" {
			return fmt.Errorf("obs: unnamed comm entry")
		}
		if c.Taus < 0 || c.Words < 0 {
			return fmt.Errorf("obs: comm entry %q has negative volume", c.Name)
		}
	}
	return nil
}

// WallPhaseNS returns the summed wall time of the top-level phases named
// (all top-level phases when no names are given).
func (m *Metrics) WallPhaseNS(names ...string) int64 {
	var sum int64
	for _, ph := range m.Phases {
		if ph.Parent != "" {
			continue
		}
		if len(names) == 0 {
			sum += ph.WallNS
			continue
		}
		for _, n := range names {
			if ph.Name == n {
				sum += ph.WallNS
			}
		}
	}
	return sum
}

// ModelPhaseS returns the summed modeled seconds of the top-level phases
// named (all top-level phases when no names are given).
func (m *Metrics) ModelPhaseS(names ...string) float64 {
	var sum float64
	for _, ph := range m.Phases {
		if ph.Parent != "" {
			continue
		}
		if len(names) == 0 {
			sum += ph.ModelS
			continue
		}
		for _, n := range names {
			if ph.Name == n {
				sum += ph.ModelS
			}
		}
	}
	return sum
}

// Write encodes m as indented JSON onto w.
func Write(w io.Writer, m *Metrics) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes m as indented JSON to the named file.
func WriteFile(path string, m *Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFileList reads and validates a JSON array of Metrics documents from
// the named file (the form imgccd's /metrics endpoint serves).
func ReadFileList(path string) ([]*Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []*Metrics
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	for i, m := range ms {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("obs: %s[%d]: %w", path, i, err)
		}
	}
	return ms, nil
}

// ReadFile reads and validates a Metrics document from the named file.
func ReadFile(path string) (*Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &m, nil
}

// commCell accumulates one communication label's volume; updates happen
// under the Recorder's mutex (Sync events are rare relative to the mutex
// cost, and a mutex keeps the map simple).
type commCell struct {
	taus, words int64
}

// Recorder collects the observability record of one or more runs. The nil
// *Recorder is the disabled recorder: every method is a no-op that
// performs no allocation and reads no clock, so engines call the recorder
// unconditionally. A non-nil Recorder is safe for concurrent use by the
// worker goroutines of one engine, or of the several engines and band
// workers of one streaming run; epoch handling is by Reset (the engines
// accumulate, the caller snapshots and resets between runs).
type Recorder struct {
	counters [numCounters]atomic.Int64

	mu        sync.Mutex
	phases    []Phase
	wallAt    map[phaseKey]int // index in phases of each folded wall phase
	comm      map[string]*commCell
	commOrder []string
	aborted   string
}

// phaseKey identifies a wall phase for folding: its name and parent.
type phaseKey struct{ name, parent string }

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder records anything (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Reset clears all recorded phases, counters and communication volumes,
// starting a new accumulation epoch. Atomic counter stores (rather than a
// fresh Recorder) keep long-lived engines pointing at the same recorder
// across runs.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.counters {
		r.counters[i].Store(0)
	}
	r.mu.Lock()
	r.phases = r.phases[:0]
	clear(r.wallAt)
	r.comm = nil
	r.commOrder = r.commOrder[:0]
	r.aborted = ""
	r.mu.Unlock()
}

// MarkAborted records that the observed run was torn down early and why
// (reason is the teardown error's message). The first mark wins — later
// secondary unwinds do not overwrite the original cause — and a zero-length
// "aborted" span closes the phase stream so readers can see where the run
// stopped. A no-op on the nil recorder.
func (r *Recorder) MarkAborted(reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.aborted == "" {
		if reason == "" {
			reason = "aborted"
		}
		r.aborted = reason
		r.phases = append(r.phases, Phase{Name: "aborted"})
	}
	r.mu.Unlock()
}

// Aborted returns the recorded teardown cause, empty when the observed run
// completed (always empty on the nil recorder).
func (r *Recorder) Aborted() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aborted
}

// Add accumulates n onto counter c. Safe for concurrent use; a no-op on
// the nil recorder and for n <= 0.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n <= 0 || c < 0 || c >= numCounters {
		return
	}
	r.counters[c].Add(n)
}

// Counter returns the accumulated value of c (0 on the nil recorder).
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil || c < 0 || c >= numCounters {
		return 0
	}
	return r.counters[c].Load()
}

// StartPhase begins timing a wall-clock phase. On the nil recorder it
// returns the zero time without reading the clock, so the disabled path
// costs one nil check.
func (r *Recorder) StartPhase() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// EndPhase records the wall-clock phase named name as having started at
// start (a StartPhase result) and ended now. Parent "" makes it a
// top-level phase. A phase already recorded under the same name and
// parent since the last Reset gains the time instead of a second entry,
// so a loop that times every iteration (the streaming pipeline's bands)
// keeps one entry per phase. A no-op on the nil recorder.
func (r *Recorder) EndPhase(name, parent string, start time.Time) {
	if r == nil {
		return
	}
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	k := phaseKey{name, parent}
	r.mu.Lock()
	if i, ok := r.wallAt[k]; ok {
		r.phases[i].WallNS += d.Nanoseconds()
	} else {
		if r.wallAt == nil {
			r.wallAt = make(map[phaseKey]int)
		}
		r.wallAt[k] = len(r.phases)
		r.phases = append(r.phases, Phase{Name: name, Parent: parent, WallNS: d.Nanoseconds()})
	}
	r.mu.Unlock()
}

// AddModelPhase records a modeled phase of seconds simulated seconds. A
// no-op on the nil recorder and for negative durations.
func (r *Recorder) AddModelPhase(name, parent string, seconds float64) {
	if r == nil || seconds < 0 {
		return
	}
	r.mu.Lock()
	r.phases = append(r.phases, Phase{Name: name, Parent: parent, ModelS: seconds})
	r.mu.Unlock()
}

// AddComm accumulates taus charged latencies and words moved words under
// the communication label. A no-op on the nil recorder.
func (r *Recorder) AddComm(label string, taus, words int64) {
	if r == nil {
		return
	}
	if label == "" {
		label = "unlabeled"
	}
	r.mu.Lock()
	cell := r.comm[label]
	if cell == nil {
		if r.comm == nil {
			r.comm = make(map[string]*commCell)
		}
		cell = &commCell{}
		r.comm[label] = cell
		r.commOrder = append(r.commOrder, label)
	}
	cell.taus += taus
	cell.words += words
	r.mu.Unlock()
}

// Snapshot returns the recorder's current contents as a Metrics document
// with the schema tag set; context fields are left for the caller. The nil
// recorder snapshots to an empty valid document. The recorder keeps
// accumulating; use Reset to start a new epoch.
func (r *Recorder) Snapshot() *Metrics {
	m := &Metrics{Schema: Schema}
	if r == nil {
		return m
	}
	r.mu.Lock()
	m.Aborted = r.aborted
	m.Phases = append([]Phase(nil), r.phases...)
	for _, label := range r.commOrder {
		cell := r.comm[label]
		m.Comm = append(m.Comm, CommStat{Name: label, Taus: cell.taus, Words: cell.words})
	}
	r.mu.Unlock()
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c].Load(); v != 0 {
			if m.Counters == nil {
				m.Counters = make(map[string]int64, int(numCounters))
			}
			m.Counters[c.String()] = v
		}
	}
	return m
}

// CounterNames returns the stable JSON keys of every counter, sorted, for
// schema checks and documentation.
func CounterNames() []string {
	names := make([]string, 0, int(numCounters))
	for c := Counter(0); c < numCounters; c++ {
		names = append(names, c.String())
	}
	sort.Strings(names)
	return names
}
