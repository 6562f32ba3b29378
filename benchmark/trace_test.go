package main

import "testing"

// TestSelfTime checks self time is a span's duration minus the union of
// its children's intervals, overlapping and overhanging children included.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "d", Start: 95, End: 120, Parent: 0},
	}
	total, self := spanTotals(spans)
	if total["op"] != 100 || self["op"] != 100-40-10-5 {
		t.Errorf("op: total %d self %d, want 100 and 45", total["op"], self["op"])
	}
	if self["b"] != 30 {
		t.Errorf("childless span b: self %d, want its duration 30", self["b"])
	}
}
