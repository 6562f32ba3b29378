package par

import (
	"fmt"
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// Allocation budgets for steady-state Engine.LabelIntoContext calls after
// one warm-up. A single-worker engine reuses every piece of scratch and
// must stay allocation-free; multi-worker engines pay only the per-phase
// goroutine closures of parallelDo (a handful of small allocations per
// phase), so the budget is a small multiple of the worker count.
const (
	allocBudget1W = 0
	allocBudgetNW = 16 // per worker: 4 phases x closure + waitgroup slack
)

// TestLabelIntoAllocs pins the steady-state allocation cost of repeated
// labelings so the run engine cannot silently regress it.
func TestLabelIntoAllocs(t *testing.T) {
	im := image.Generate(image.DualSpiral, 128)
	out := image.NewLabels(128)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e := NewEngine(w)
			mustLabelInto(t, e, im, image.Conn8, seq.Binary, out) // warm scratch
			budget := float64(allocBudget1W)
			if w > 1 {
				budget = float64(allocBudgetNW * w)
			}
			var err error
			avg := testing.AllocsPerRun(10, func() {
				_, err = e.LabelIntoContext(nil, im, image.Conn8, seq.Binary, out)
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg > budget {
				t.Fatalf("%.1f allocs per LabelIntoContext, budget %.0f", avg, budget)
			}
		})
	}
}

// TestGreyLabelIntoAllocs pins the steady-state allocation cost of Grey
// mode on both grey run extractors: the byte-plane path ("runs": byteplane
// packing plus grey run extraction) and the full-width fallback ("wide":
// grey levels above a byte, runs read from the raw uint32 pixels). Each
// must stay allocation-free at one worker after warm-up.
func TestGreyLabelIntoAllocs(t *testing.T) {
	wide := image.RandomGrey(128, 8, 3)
	for i := range wide.Pix {
		if wide.Pix[i] != 0 {
			wide.Pix[i] += 256
		}
	}
	cases := []struct {
		name string
		im   *image.Image
	}{
		{"runs", image.RandomGrey(128, 8, 3)},
		{"wide", wide},
	}
	out := image.NewLabels(128)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			mustLabelInto(t, e, c.im, image.Conn8, seq.Grey, out) // warm scratch
			var err error
			avg := testing.AllocsPerRun(10, func() {
				_, err = e.LabelIntoContext(nil, c.im, image.Conn8, seq.Grey, out)
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg > allocBudget1W {
				t.Fatalf("%.1f allocs per grey LabelIntoContext, budget %d", avg, allocBudget1W)
			}
		})
	}
}
