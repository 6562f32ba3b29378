package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func row(pattern, mode, backend string, w int, ns int64, agreed bool) Row {
	return Row{Pattern: pattern, N: 64, Backend: backend,
		Mode: mode, Workers: w, NS: ns, LabelsAgreed: agreed}
}

func TestDiffFlagsRegressionsWithinTolerance(t *testing.T) {
	base := &Report{Rows: []Row{
		row("cross", "binary", "par", 1, 1000, true),
		row("cross", "grey", "par", 1, 1000, true),
		row("gone", "binary", "seq", 1, 500, true),
	}}
	cur := &Report{Rows: []Row{
		row("cross", "binary", "par", 1, 1200, true), // +20%: inside 25%
		row("cross", "grey", "par", 1, 2000, true),   // +100%: regression
		row("fresh", "grey", "par", 4, 300, true),
	}}
	deltas, onlyBase, onlyNew := Diff(base, cur, 0.25)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v, want 2", deltas)
	}
	// Worst first.
	if !deltas[0].Regress || deltas[0].Ratio != 2.0 {
		t.Fatalf("worst delta = %+v, want 2.0x regression", deltas[0])
	}
	if deltas[1].Regress {
		t.Fatalf("within-tolerance cell flagged: %+v", deltas[1])
	}
	if len(onlyBase) != 1 || onlyBase[0] != base.Rows[2].Key() {
		t.Fatalf("onlyBase = %v", onlyBase)
	}
	if len(onlyNew) != 1 || onlyNew[0] != cur.Rows[2].Key() {
		t.Fatalf("onlyNew = %v", onlyNew)
	}
}

func TestDisagreements(t *testing.T) {
	rep := &Report{Rows: []Row{
		row("a", "binary", "par", 1, 10, true),
		row("b", "grey", "par", 2, 10, false),
	}}
	bad := Disagreements(rep)
	if len(bad) != 1 || bad[0] != rep.Rows[1].Key() {
		t.Fatalf("disagreements = %v", bad)
	}
}

func TestReadFileRoundTripsAndReadsLegacy(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{Benchmark: "m", Rows: []Row{row("x", "grey", "par", 2, 42, true)}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].NS != 42 || got.Rows[0].Mode != "grey" {
		t.Fatalf("round trip: %+v", got)
	}

	// A document written while the matrix still had algo and merge columns
	// loads; the retired fields are ignored.
	legacy := []byte(`{"benchmark":"old","rows":[{"pattern":"cross","n":64,"backend":"par",` +
		`"algo":"runs","mode":"binary","merge":"sv","workers":2,"ns":7,"labels_identical":true}]}`)
	lp := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(lp, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := ReadFile(lp)
	if err != nil {
		t.Fatal(err)
	}
	if old.Rows[0].Key() != row("cross", "binary", "par", 2, 0, true).Key() || old.Rows[0].NS != 7 {
		t.Fatalf("legacy row = %+v", old.Rows[0])
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated JSON: want error")
	}
}
