// Benchmarks for the host-parallel engine (real wall-clock, no cost model)
// and for the zero-allocation claims of the reworked simulator hot paths.
//
// BenchmarkParallelCC and BenchmarkParallelHistogram report throughput:
// SetBytes is given one unit per pixel, so the harness's MB/s column reads
// directly as MPix/s. BenchmarkRepeatedLabel measures the steady-state
// allocation cost of calling Simulator.Label in a loop (run with -benchmem;
// the seed did ~4500 allocs and ~1.6 MB per call at p=16, n=256).
package parimg

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkParallelCC measures host-parallel labeling throughput on the
// dual-spiral pattern (the catalog's hardest) across sizes and worker
// counts; the workers=1 rows are the sequential anchor for speedup.
func BenchmarkParallelCC(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{512, 1024} {
		im := GeneratePattern(DualSpiral, n)
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				e := NewParallelEngine(w)
				out := NewLabels(n)
				b.SetBytes(int64(n * n)) // MB/s column == MPix/s
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.LabelIntoContext(ctx, im, Conn8, Binary, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParallelHistogram measures host-parallel histogram throughput
// (k=256) against the single-worker anchor.
func BenchmarkParallelHistogram(b *testing.B) {
	for _, n := range []int{512, 1024} {
		im := RandomGrey(n, 256, uint64(n))
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				e := NewParallelEngine(w)
				h := make([]int64, 256)
				b.SetBytes(int64(n * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.HistogramInto(im, h); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSequentialCC is the LabelSequential anchor for the speedup of
// BenchmarkParallelCC.
func BenchmarkSequentialCC(b *testing.B) {
	for _, n := range []int{512, 1024} {
		im := GeneratePattern(DualSpiral, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * n))
			for i := 0; i < b.N; i++ {
				LabelSequential(im, Conn8, Binary)
			}
		})
	}
}

// BenchmarkRepeatedLabel measures the steady-state cost of repeated
// simulator labelings on one Simulator: the persistent goroutine pool and
// the sync.Pool scratch arena make every run after the first reuse the ~15
// spread arrays and all per-processor scratch.
func BenchmarkRepeatedLabel(b *testing.B) {
	im := GeneratePattern(DualSpiral, 256)
	sim, err := NewSimulator(16, CM5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Label(im, LabelOptions{}); err != nil {
		b.Fatal(err) // warm the arena
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Label(im, LabelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatedHistogram is the histogramming analogue of
// BenchmarkRepeatedLabel.
func BenchmarkRepeatedHistogram(b *testing.B) {
	im := RandomGrey(256, 256, 5)
	sim, err := NewSimulator(16, CM5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Histogram(im, 256); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Histogram(im, 256); err != nil {
			b.Fatal(err)
		}
	}
}
