// Package benchfmt holds the on-disk schema of the benchjson report
// (BENCH_runs.json) and the cell-by-cell comparison used by benchdiff, so
// the writer and the differ cannot drift apart.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Row is one measured configuration cell of the matrix.
type Row struct {
	Pattern      string  `json:"pattern"`
	N            int     `json:"n"`
	Backend      string  `json:"backend"` // "seq" or "par"
	Mode         string  `json:"mode"`    // "binary" or "grey"
	Workers      int     `json:"workers"`
	NS           int64   `json:"ns"`
	MPixPerS     float64 `json:"mpix_per_s"`
	Components   int     `json:"components"`
	LabelsAgreed bool    `json:"labels_identical"`
}

// Key identifies a cell independent of its measurements.
func (r Row) Key() string {
	return fmt.Sprintf("%s/%d/%s/%s/w%d", r.Pattern, r.N, r.Mode, r.Backend, r.Workers)
}

// Report is the whole benchjson document.
type Report struct {
	Benchmark  string `json:"benchmark"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Conn       string `json:"connectivity"`
	Modes      string `json:"modes"`
	MinTimeMS  int64  `json:"mintime_ms"`
	Rows       []Row  `json:"rows"`
}

// ReadFile loads a benchjson report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return &rep, nil
}

// Delta is the comparison of one cell present in both reports.
type Delta struct {
	Key     string
	BaseNS  int64
	NewNS   int64
	Ratio   float64 // NewNS / BaseNS; > 1 means slower
	Regress bool    // Ratio exceeded 1 + tolerance
}

// Diff compares every cell of base against cur with a per-cell relative
// tolerance (0.25 allows a 25% slowdown before a cell counts as a
// regression). It returns the matched deltas sorted worst-first, the keys
// only present in base (coverage lost), and the keys only present in cur
// (new cells — informational). Timing on shared hardware is noisy, so
// tolerances below ~0.2 will flag phantom regressions.
func Diff(base, cur *Report, tolerance float64) (deltas []Delta, onlyBase, onlyNew []string) {
	baseRows := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Key()] = r
	}
	seen := make(map[string]bool, len(cur.Rows))
	for _, r := range cur.Rows {
		k := r.Key()
		seen[k] = true
		b, ok := baseRows[k]
		if !ok {
			onlyNew = append(onlyNew, k)
			continue
		}
		d := Delta{Key: k, BaseNS: b.NS, NewNS: r.NS}
		if b.NS > 0 {
			d.Ratio = float64(r.NS) / float64(b.NS)
			d.Regress = d.Ratio > 1+tolerance
		}
		deltas = append(deltas, d)
	}
	for k := range baseRows {
		if !seen[k] {
			onlyBase = append(onlyBase, k)
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Ratio != deltas[j].Ratio {
			return deltas[i].Ratio > deltas[j].Ratio
		}
		return deltas[i].Key < deltas[j].Key
	})
	sort.Strings(onlyBase)
	sort.Strings(onlyNew)
	return deltas, onlyBase, onlyNew
}

// Disagreements returns the keys of cells whose labeling did not match the
// sequential reference — a correctness failure regardless of timing.
func Disagreements(rep *Report) []string {
	var bad []string
	for _, r := range rep.Rows {
		if !r.LabelsAgreed {
			bad = append(bad, r.Key())
		}
	}
	sort.Strings(bad)
	return bad
}
