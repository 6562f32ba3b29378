package image

import (
	"math"
	"testing"
)

// labelsFor builds a labeling directly for test setups.
func labelsFor(n int, lab []uint32) *Labels {
	l := NewLabels(n)
	copy(l.Lab, lab)
	return l
}

func TestCensusBasic(t *testing.T) {
	im := New(4)
	// A 2x2 square of grey 5 at (0,0) and a single pixel of grey 9 at (3,3).
	im.Set(0, 0, 5)
	im.Set(0, 1, 5)
	im.Set(1, 0, 5)
	im.Set(1, 1, 5)
	im.Set(3, 3, 9)
	l := labelsFor(4, []uint32{
		1, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 16,
	})
	stats := l.Census(im)
	if len(stats) != 2 {
		t.Fatalf("census has %d components, want 2", len(stats))
	}
	sq := stats[0]
	if sq.Label != 1 || sq.Size != 4 {
		t.Fatalf("largest component %+v", sq)
	}
	if sq.MinRow != 0 || sq.MinCol != 0 || sq.MaxRow != 1 || sq.MaxCol != 1 {
		t.Errorf("square bbox %+v", sq)
	}
	if math.Abs(sq.CentroidRow-0.5) > 1e-12 || math.Abs(sq.CentroidCol-0.5) > 1e-12 {
		t.Errorf("square centroid (%g,%g), want (0.5,0.5)", sq.CentroidRow, sq.CentroidCol)
	}
	if sq.Grey != 5 {
		t.Errorf("square grey %d, want 5", sq.Grey)
	}
	dot := stats[1]
	if dot.Size != 1 || dot.Grey != 9 || dot.MinRow != 3 || dot.MaxCol != 3 {
		t.Errorf("dot stats %+v", dot)
	}
}

func TestCensusSizesMatchComponentSizes(t *testing.T) {
	im := RandomBinary(32, 0.55, 3)
	// Use any labeling; here a trivial one keyed by value runs.
	l := NewLabels(32)
	next := uint32(1)
	for i, v := range im.Pix {
		if v != 0 {
			l.Lab[i] = 1 + next%7 // arbitrary multi-component labeling
			next++
		}
	}
	stats := l.Census(im)
	sizes := l.ComponentSizes()
	if len(stats) != len(sizes) {
		t.Fatalf("census %d entries, sizes %d", len(stats), len(sizes))
	}
	total := 0
	for _, s := range stats {
		if sizes[s.Label] != s.Size {
			t.Errorf("label %d: census size %d, map size %d", s.Label, s.Size, sizes[s.Label])
		}
		total += s.Size
	}
	if total != im.CountForeground() {
		t.Errorf("census covers %d pixels, foreground is %d", total, im.CountForeground())
	}
	// Sorted by decreasing size.
	for i := 1; i < len(stats); i++ {
		if stats[i].Size > stats[i-1].Size {
			t.Fatal("census not sorted by size")
		}
	}
}

func TestCensusEmpty(t *testing.T) {
	im := New(8)
	if got := NewLabels(8).Census(im); len(got) != 0 {
		t.Errorf("empty census has %d entries", len(got))
	}
}

func TestCensusPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewLabels(4).Census(New(8))
}

func TestEqualizeFlattens(t *testing.T) {
	// Squeeze greys into a narrow band, equalize, verify the span
	// stretches and the CDF gets closer to uniform.
	k := 256
	im := RandomGrey(64, 64, 9)
	for i, v := range im.Pix {
		if v != 0 {
			im.Pix[i] = 100 + v/2 // band 100..131
		}
	}
	h, err := im.Histogram(k)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Equalize(im, h)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := out.Histogram(k)
	if err != nil {
		t.Fatal(err)
	}
	span := func(h []int64) int {
		loG, hiG := -1, -1
		for g := 1; g < len(h); g++ {
			if h[g] > 0 {
				if loG < 0 {
					loG = g
				}
				hiG = g
			}
		}
		return hiG - loG
	}
	if span(h2) <= span(h) {
		t.Errorf("span did not stretch: before %d, after %d", span(h), span(h2))
	}
	// Background must be preserved exactly.
	for i := range im.Pix {
		if (im.Pix[i] == 0) != (out.Pix[i] == 0) {
			t.Fatal("background not preserved")
		}
	}
	// Pixel count conserved per remapping (total foreground unchanged).
	if out.CountForeground() != im.CountForeground() {
		t.Error("foreground count changed")
	}
}

func TestEqualizeMonotone(t *testing.T) {
	// Equalization must preserve grey-level ordering: if g1 < g2 then
	// lut(g1) <= lut(g2). Check via pixel pairs.
	im := RandomGrey(32, 256, 4)
	h, err := im.Histogram(256)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Equalize(im, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Pix {
		for j := range im.Pix {
			if im.Pix[i] != 0 && im.Pix[j] != 0 && im.Pix[i] < im.Pix[j] && out.Pix[i] > out.Pix[j] {
				t.Fatalf("ordering violated: %d->%d but %d->%d",
					im.Pix[i], out.Pix[i], im.Pix[j], out.Pix[j])
			}
		}
		if i > 64 {
			break // quadratic check on a prefix is enough
		}
	}
}

func TestEqualizeAllBackground(t *testing.T) {
	im := New(8)
	h, _ := im.Histogram(16)
	out, err := Equalize(im, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Pix {
		if v != 0 {
			t.Fatal("background image should stay background")
		}
	}
}
