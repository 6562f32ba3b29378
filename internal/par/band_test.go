package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// bandOracle labels a rows x cols band with the sequential BFS tile
// labeler under band-local seeds (band row-major index + 1) — the labeling
// LabelBand must reproduce, and the oracle the benchmark's identity check
// also uses.
func bandOracle(pix []uint32, rows, cols int, conn image.Connectivity, mode seq.Mode) ([]uint32, int) {
	lab := make([]uint32, rows*cols)
	var l seq.Labeler
	comps := l.LabelTile(pix, rows, cols, conn, mode,
		func(i, j int) uint32 { return uint32(i*cols+j) + 1 }, lab)
	return lab, comps
}

// walkStrips renders the run tables of e's last band into a rows x cols
// labeling from each run's final label, the way the band pipeline's
// consumers read them, and counts the seed runs: those whose final label
// is their own first pixel.
func walkStrips(e *Engine, rows, cols int) ([]uint32, int) {
	lab := make([]uint32, rows*cols)
	at, seeds := 0, 0
	strips := e.Strips()
	for w := range strips {
		for i := 0; i < strips[w].Rows(); i, at = i+1, at+cols {
			runs, labels, seed := strips[w].Row(i)
			for k, l := range labels {
				s, end := runs[2*k], runs[2*k+1]
				seq.Fill32(lab[at+int(s):at+int(end)], l)
				if l == seed+uint32(s) {
					seeds++
				}
			}
		}
	}
	if at != rows*cols {
		return nil, -1
	}
	return lab, seeds
}

// randomBand returns rows x cols pixels with grey levels drawn from
// levels (0 is background), about density of them foreground.
func randomBand(rows, cols int, density float64, levels []uint32, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	pix := make([]uint32, rows*cols)
	for i := range pix {
		if rng.Float64() < density {
			pix[i] = levels[rng.Intn(len(levels))]
		}
	}
	return pix
}

// TestLabelBandMatchesOracle sweeps LabelBand over rectangular bands —
// single rows and columns, fewer rows than workers, widths on both sides of
// the 64- and 8-pixel word boundaries, grey levels above a byte (the
// full-width fallback, with levels that alias modulo 256, and foreground
// levels whose low byte is zero) and the ∪/∩ whose
// arms cross strips — at several worker counts, both connectivities and
// both modes. Each engine is reused across bands into a dirty label
// buffer; labels and the component count must equal the band-local BFS.
// Labeled again with no label buffer, the band's run tables must walk to
// the same labels, with one seed run per component.
func TestLabelBandMatchesOracle(t *testing.T) {
	narrow := []uint32{1, 2}
	wide := []uint32{7, 7 + 256, 300}
	high := []uint32{1, 256, 65536, 1 << 31, 0xFFFFFFFF}
	bands := []struct {
		name       string
		rows, cols int
		pix        []uint32
	}{
		{"1x200", 1, 200, randomBand(1, 200, 0.6, narrow, 1)},
		{"200x1", 200, 1, randomBand(200, 1, 0.6, narrow, 2)},
		{"5x40", 5, 40, randomBand(5, 40, 0.6, narrow, 3)},
		{"50x1", 50, 1, randomBand(50, 1, 0.8, narrow, 4)},
		{"37x63", 37, 63, randomBand(37, 63, 0.6, narrow, 5)},
		{"41x65", 41, 65, randomBand(41, 65, 0.6, narrow, 6)},
		{"29x67", 29, 8*8 + 3, randomBand(29, 8*8+3, 0.6, narrow, 7)},
		{"23x35-wide-grey", 23, 35, randomBand(23, 35, 0.7, wide, 8)},
		{"19x70-high-bits", 19, 70, randomBand(19, 70, 0.6, high, 9)},
		{"cup", 64, 64, cupImage(false).Pix},
		{"cap", 64, 64, cupImage(true).Pix},
	}
	for _, w := range []int{1, 2, 3, 7, 64} {
		e := NewEngine(w)
		for _, b := range bands {
			for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
				for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
					name := fmt.Sprintf("%s/%v/%v/workers=%d", b.name, conn, mode, w)
					want, wantComps := bandOracle(b.pix, b.rows, b.cols, conn, mode)
					lab := make([]uint32, len(b.pix))
					for i := range lab {
						lab[i] = 12345
					}
					comps, err := e.LabelBand(nil, b.pix, b.rows, b.cols, conn, mode, lab)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if comps != wantComps {
						t.Fatalf("%s: %d components, want %d", name, comps, wantComps)
					}
					for i := range want {
						if lab[i] != want[i] {
							t.Fatalf("%s: pixel (%d,%d) = %d, want %d",
								name, i/b.cols, i%b.cols, lab[i], want[i])
						}
					}
					if _, err := e.LabelBand(nil, b.pix, b.rows, b.cols, conn, mode, nil); err != nil {
						t.Fatalf("%s: unpainted: %v", name, err)
					}
					if walked, seeds := walkStrips(e, b.rows, b.cols); seeds != wantComps || !slices.Equal(walked, want) {
						t.Fatalf("%s: run tables walk to %d seeds and labels %v, want %d and %v",
							name, seeds, walked, wantComps, want)
					}
				}
			}
		}
	}
}

// TestLabelBandTypedErrors pins LabelBand's input contract: a bad
// geometry, a band past the uint32 seed space and an unknown connectivity
// or mode each come back as their typed error before any labeling work.
// The geometry and overflow rows pass no band buffers at all, and the
// engine must not allocate one on their behalf either.
func TestLabelBandTypedErrors(t *testing.T) {
	four := make([]uint32, 4)
	cases := []struct {
		name       string
		pix, lab   []uint32
		rows, cols int
		conn       image.Connectivity
		mode       seq.Mode
		want       error
	}{
		{"zero rows", nil, nil, 0, 8, image.Conn8, seq.Binary, errs.ErrGeometry},
		{"negative cols", nil, nil, 4, -1, image.Conn8, seq.Binary, errs.ErrGeometry},
		{"short pixels", four[:3], four, 2, 2, image.Conn8, seq.Binary, errs.ErrGeometry},
		{"short labels", four, four[:3], 2, 2, image.Conn8, seq.Binary, errs.ErrGeometry},
		{"65536x65536 seeds", nil, nil, 1 << 16, 1 << 16, image.Conn8, seq.Binary, errs.ErrLabelOverflow},
		{"2x2^31 seeds", nil, nil, 2, 1 << 31, image.Conn4, seq.Grey, errs.ErrLabelOverflow},
		{"bad connectivity", four, four, 2, 2, image.Connectivity(3), seq.Binary, errs.ErrBadInput},
		{"bad mode", four, four, 2, 2, image.Conn8, seq.Mode(9), errs.ErrBadInput},
	}
	e := NewEngine(2)
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := e.LabelBand(nil, c.pix, c.rows, c.cols, c.conn, c.mode, c.lab)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: rejecting the band allocated %d bytes", c.name, grew)
		}
	}
}

// TestLabelBandExhaustiveSmallScope enumerates small bands instead of
// sampling them: every binary 4x4 image and every 3x3 image over grey
// levels {0, 1, 2} in grey mode, at both connectivities, through one
// reused engine at each of one to four workers, into a dirty label
// buffer. At four workers a 4x4 band is four one-row strips, where a
// strip's first row is also its last; the stream sweep's one- and two-row
// bands never split into strips. Labels and the component count must
// equal the band-local BFS, and so must the run tables the same call
// leaves: walked, they give the labels, and their seed runs the count.
func TestLabelBandExhaustiveSmallScope(t *testing.T) {
	engines := make([]*Engine, 4)
	for w := range engines {
		engines[w] = NewEngine(w + 1)
	}
	sweep := func(t *testing.T, rows, cols, levels int, mode seq.Mode) {
		pix := make([]uint32, rows*cols)
		lab := make([]uint32, rows*cols)
		images := 1
		for range pix {
			images *= levels
		}
		for code := 0; code < images; code++ {
			for i, c := 0, code; i < len(pix); i, c = i+1, c/levels {
				pix[i] = uint32(c % levels)
			}
			for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
				want, wantComps := bandOracle(pix, rows, cols, conn, mode)
				for _, e := range engines {
					for i := range lab {
						lab[i] = 0xdeadbeef
					}
					comps, err := e.LabelBand(nil, pix, rows, cols, conn, mode, lab)
					walked, seeds := walkStrips(e, rows, cols)
					if err == nil && comps == wantComps && slices.Equal(lab, want) &&
						seeds == wantComps && slices.Equal(walked, want) {
						continue
					}
					name := fmt.Sprintf("%dx%d image %v conn%d workers=%d",
						rows, cols, pix, int(conn), e.Workers())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					t.Fatalf("%s: %d components, labels %v, run tables %d seeds, labels %v; want %d, %v",
						name, comps, lab, seeds, walked, wantComps, want)
				}
			}
		}
	}
	t.Run("binary4x4", func(t *testing.T) { sweep(t, 4, 4, 2, seq.Binary) })
	t.Run("grey3x3", func(t *testing.T) { sweep(t, 3, 3, 3, seq.Grey) })
}
