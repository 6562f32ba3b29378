package obs

import "sync"

// Agg accumulates many Metrics documents into one aggregate document — the
// fleet view a long-lived server exports at its /metrics endpoint, where
// per-request documents answer "what did this run do" and the aggregate
// answers "where has the service's time gone overall". Aggregation is by
// name: top-level wall phases are summed into one phase per name (kept in
// first-observed order, so the aggregate reads in pipeline order), counters
// are summed by key, and TotalNS accumulates end-to-end run time. Two
// synthetic counters are added: "documents" (documents observed) and
// "aborted_documents" (documents whose Aborted field was set). Their names
// stay clear of the summed engine counters, such as "runs".
//
// An Agg is safe for concurrent use; Observe is designed to sit on a
// server's per-request completion path.
type Agg struct {
	mu       sync.Mutex
	docs     int64
	aborted  int64
	totalNS  int64
	order    []string // first-observed top-level phase names
	wall     map[string]int64
	counters map[string]int64
}

// NewAgg returns an empty aggregator.
func NewAgg() *Agg {
	return &Agg{wall: make(map[string]int64), counters: make(map[string]int64)}
}

// Observe folds one document into the aggregate: top-level wall phases and
// counters are summed by name, TotalNS accumulates, and the document
// tallies advance. Child phases (Parent set) are skipped — their parents
// already cover their time. A nil document is ignored.
func (a *Agg) Observe(m *Metrics) {
	if m == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.docs++
	if m.Aborted != "" {
		a.aborted++
	}
	a.totalNS += m.TotalNS
	for _, ph := range m.Phases {
		if ph.Parent != "" {
			continue
		}
		if _, seen := a.wall[ph.Name]; !seen {
			a.order = append(a.order, ph.Name)
		}
		a.wall[ph.Name] += ph.WallNS
	}
	for name, v := range m.Counters {
		a.counters[name] += v
	}
}

// Count returns the number of documents observed so far.
func (a *Agg) Count() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.docs
}

// Snapshot returns the aggregate as a fresh, Valid Metrics document:
// summed top-level phases in first-observed order, summed counters plus
// the synthetic "documents" and "aborted_documents", and the accumulated
// TotalNS.
// Context fields (Command, Image, ...) are left for the caller to fill;
// the caller also owns the returned document and may extend its Counters
// map. Snapshotting an empty aggregate yields a valid document with
// documents=0.
func (a *Agg) Snapshot() *Metrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := &Metrics{
		Schema:   Schema,
		TotalNS:  a.totalNS,
		Phases:   make([]Phase, 0, len(a.order)),
		Counters: make(map[string]int64, len(a.counters)+2),
	}
	for _, name := range a.order {
		m.Phases = append(m.Phases, Phase{Name: name, WallNS: a.wall[name]})
	}
	for name, v := range a.counters {
		m.Counters[name] = v
	}
	m.Counters["documents"] = a.docs
	m.Counters["aborted_documents"] = a.aborted
	return m
}
