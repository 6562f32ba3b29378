package parimg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadPGM feeds arbitrary bytes to the PGM parser. The contract under
// test: ReadPGM returns either a typed error or a well-formed square image
// — it never panics, and it never returns an image that fails Check (which
// would let a hostile file smuggle a malformed struct past every
// downstream validation).
func FuzzReadPGM(f *testing.F) {
	f.Add([]byte("P5\n2 2\n255\n\x01\x02\x03\x04"))
	f.Add([]byte("P5\n# comment line\n2 2\n255\n\x01\x02\x03\x04"))
	f.Add([]byte("P5\n0 0\n255\n"))
	f.Add([]byte("P5\n65535 65535\n255\n"))
	f.Add([]byte("P5\n2 3\n255\n......"))
	f.Add([]byte("P5\n4 4\n255\nxy"))
	f.Add([]byte("P2\n2 2\n255\n1 2 3 4"))
	f.Add([]byte("P5\n" + strings.Repeat("9", 64) + " 2\n255\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("ReadPGM error %q is outside the taxonomy", err)
			}
			return
		}
		if im == nil {
			t.Fatal("ReadPGM returned nil image and nil error")
		}
		if im.N <= 0 || im.N > MaxSide || len(im.Pix) != im.N*im.N {
			t.Fatalf("ReadPGM returned malformed image: N=%d len(Pix)=%d", im.N, len(im.Pix))
		}
	})
}

// FuzzPublicAPI drives the whole public surface — image construction,
// histogramming and labeling on the seq, par and sim backends — with
// arbitrary parameters. Every call must return a typed error or a correct
// result; when a backend accepts the input, its labeling must be
// pixel-identical to the sequential baseline.
//
// Parameters are plain ints so corpus entries stay hand-writable. The sixth
// parameter once chose a host-parallel algorithm and merge backend; it is
// kept, unused, so the committed corpus entries stay valid. Sizes
// are used directly when small enough to materialize (1..64); anything
// else exercises the validators through a hostile header-only struct, so
// the harness covers n = MaxSide+1 without allocating 17 GB.
func FuzzPublicAPI(f *testing.F) {
	f.Add(16, 4, 8, 8, 0, 0, uint64(1))
	f.Add(0, 3, 0, 3, 0, 0, uint64(1))         // everything invalid
	f.Add(-5, -8, -2, 9, 7, 3, uint64(2))      // negative sizes, bad conn/mode
	f.Add(MaxSide+1, 4, 8, 8, 0, 0, uint64(1)) // seed-label overflow bound
	f.Add(70000, 2, 256, 4, 1, 1, uint64(9))   // far past the bound
	f.Add(MaxSide, 1, 2, 8, 0, 2, uint64(3))   // boundary side, header-only
	f.Add(33, 8, 4, 4, 1, 2, uint64(7))        // odd side, grey mode
	f.Add(32, 4, 16, 8, 1, 1, uint64(11))      // canceled-context leg, grey mode
	f.Fuzz(func(t *testing.T, n, p, k, conn, mode, _ int, seed uint64) {
		var im *Image
		if n >= 1 && n <= 64 {
			im = RandomGrey(n, 4, seed)
		} else {
			// Hostile struct: arbitrary N with no backing pixels. Every
			// entry point must reject it, not index into it.
			im = &Image{N: n}
		}
		opt := LabelOptions{Conn: Connectivity(conn), Mode: Mode(mode)}

		// Canceled-context leg: however hostile the rest of the input, a
		// pre-canceled context must yield a typed error — either the
		// cancellation itself or the input rejection that beat it to the
		// boundary — and never a panic or a nil-error result.
		canceledCtx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := LabelContext(canceledCtx, im, opt); err == nil {
			t.Fatal("LabelContext accepted a pre-canceled context")
		} else if !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrBadInput) {
			t.Fatalf("LabelContext(canceled): error %q is outside the taxonomy", err)
		}
		if _, err := HistogramContext(canceledCtx, im, k); err == nil {
			t.Fatal("HistogramContext accepted a pre-canceled context")
		} else if !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrBadInput) {
			t.Fatalf("HistogramContext(canceled): error %q is outside the taxonomy", err)
		}

		seqLabels, seqErr := LabelSequentialErr(im, opt.Conn, opt.Mode)
		checkTyped(t, "LabelSequentialErr", seqErr)

		parLabels, parErr := LabelParallelErr(im, opt)
		checkTyped(t, "LabelParallelErr", parErr)
		// Conn 0 means "default to Conn8" on the parallel path only, so
		// error parity is asserted for explicitly-set connectivity.
		if conn != 0 && mode == 0 {
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("backend error disagreement: seq=%v par=%v", seqErr, parErr)
			}
		}
		if seqErr == nil && parErr == nil && conn != 0 {
			comparePixels(t, "par", seqLabels, parLabels)
		}

		if _, err := HistogramSequential(im, k); err != nil {
			checkTyped(t, "HistogramSequential", err)
		}
		if _, err := HistogramParallel(im, k); err != nil {
			checkTyped(t, "HistogramParallel", err)
		}

		sim, err := NewSimulator(p, CM5)
		if err != nil {
			checkTyped(t, "NewSimulator", err)
			return
		}
		res, err := sim.Label(im, opt)
		checkTyped(t, "Simulator.Label", err)
		if err == nil && seqErr == nil && conn != 0 {
			comparePixels(t, "sim", seqLabels, res.Labels)
		}
		if _, err := sim.Histogram(im, k); err != nil {
			checkTyped(t, "Simulator.Histogram", err)
		}
	})
}

// checkTyped asserts an error (if any) belongs to the taxonomy.
func checkTyped(t *testing.T, op string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrBadInput) {
		t.Fatalf("%s: error %q is outside the taxonomy", op, err)
	}
}

// comparePixels asserts two labelings agree pixel-for-pixel.
func comparePixels(t *testing.T, backend string, want, got *Labels) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: labeling side %d, want %d", backend, got.N, want.N)
	}
	for i := range want.Lab {
		if got.Lab[i] != want.Lab[i] {
			t.Fatalf("%s: pixel %d labeled %d, want %d", backend, i, got.Lab[i], want.Lab[i])
		}
	}
}

// TestNoPanic is the recover-asserting boundary test: each public entry
// point is hit with the most hostile input that historically panicked (or
// silently corrupted results), and the test fails naming the entry point
// if a panic escapes instead of a returned error.
func TestNoPanic(t *testing.T) {
	sim, err := NewSimulator(4, CM5)
	if err != nil {
		t.Fatal(err)
	}
	oversized := &Image{N: MaxSide + 1}
	ragged := &Image{N: 8, Pix: make([]uint32, 3)}
	hotGrey := &Image{N: 2, Pix: []uint32{0, 1, 1 << 30, 1}}
	entries := []struct {
		name string
		call func() error
	}{
		{"ReadPGM/garbage", func() error { _, err := ReadPGM(strings.NewReader("P5\n\xff\xff")); return err }},
		{"ReadPGM/huge header", func() error { _, err := ReadPGM(strings.NewReader("P5\n1000000 1000000\n255\n")); return err }},
		{"NewImageErr/negative", func() error { _, err := NewImageErr(-1); return err }},
		{"NewSimulator/zero", func() error { _, err := NewSimulator(0, CM5); return err }},
		{"LabelSequentialErr/oversized", func() error { _, err := LabelSequentialErr(oversized, Conn8, Binary); return err }},
		{"LabelSequentialErr/ragged", func() error { _, err := LabelSequentialErr(ragged, Conn8, Binary); return err }},
		{"LabelParallelErr/oversized", func() error { _, err := LabelParallelErr(oversized, LabelOptions{}); return err }},
		{"LabelParallelErr/ragged", func() error { _, err := LabelParallelErr(ragged, LabelOptions{}); return err }},
		{"LabelParallelErr/bad conn", func() error {
			_, err := LabelParallelErr(GenCrossImage(8), LabelOptions{Conn: Connectivity(99)})
			return err
		}},
		{"Simulator.Label/oversized", func() error { _, err := sim.Label(oversized, LabelOptions{}); return err }},
		{"Simulator.Label/ragged", func() error { _, err := sim.Label(ragged, LabelOptions{}); return err }},
		{"Simulator.Histogram/hot grey", func() error { _, err := sim.Histogram(hotGrey, 4); return err }},
		{"Simulator.Equalize/bad k", func() error { _, err := sim.Equalize(GenCrossImage(8), -3); return err }},
		{"Simulator.Census/mismatch", func() error { _, err := sim.Census(GenCrossImage(16), NewLabels(4)); return err }},
		{"HistogramSequential/hot grey", func() error { _, err := HistogramSequential(hotGrey, 4); return err }},
		{"HistogramParallel/hot grey", func() error { _, err := HistogramParallel(hotGrey, 4); return err }},
		{"HistogramParallel/nil", func() error { _, err := HistogramParallel(nil, 4); return err }},
		{"ThresholdErr/ragged", func() error { _, err := ThresholdErr(ragged, 1); return err }},
		{"CensusErr/mismatch", func() error { _, err := CensusErr(NewLabels(4), GenCrossImage(16)); return err }},
		{"GeneratePatternErr/unknown", func() error { _, err := GeneratePatternErr(PatternID(-1), 16); return err }},
		{"RandomBinaryErr/NaN-ish density", func() error { _, err := RandomBinaryErr(16, -0.01, 1); return err }},
		{"RandomGreyErr/k=1", func() error { _, err := RandomGreyErr(16, 1, 1); return err }},
	}
	for _, e := range entries {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", e.name, r)
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return e.call()
		}()
		if err == nil {
			t.Errorf("%s: hostile input accepted (nil error)", e.name)
		} else if !errors.Is(err, ErrBadInput) && !strings.HasPrefix(err.Error(), "panic:") {
			t.Errorf("%s: error %q is outside the taxonomy", e.name, err)
		}
	}
}
