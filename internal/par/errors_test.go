package par

import (
	"errors"
	"testing"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// TestLabelErrRejectsOversizedImages pins the seed-label overflow guard: at
// n = 65536 the seed label of the last pixel, uint32(n*n-1)+1, wraps to 0,
// so the engine and the pooled Label must refuse anything beyond
// image.MaxSide with ErrLabelOverflow instead of producing a silently
// corrupt labeling.
func TestLabelErrRejectsOversizedImages(t *testing.T) {
	im := &image.Image{N: image.MaxSide + 1} // nil Pix: never dereferenced
	e := NewEngine(2)
	if _, err := e.LabelContext(nil, im, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrLabelOverflow) {
		t.Fatalf("LabelContext(n=%d) = %v, want ErrLabelOverflow", im.N, err)
	}
	if _, err := Label(nil, nil, im, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrLabelOverflow) {
		t.Fatalf("Label(n=%d) = %v, want ErrLabelOverflow", im.N, err)
	}
}

func TestLabelErrInputValidation(t *testing.T) {
	e := NewEngine(2)
	good := image.GenCross(16)
	if _, err := e.LabelContext(nil, nil, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("nil image: %v", err)
	}
	if _, err := e.LabelContext(nil, &image.Image{N: 4, Pix: make([]uint32, 3)}, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrGeometry) {
		t.Errorf("short buffer: %v", err)
	}
	if _, err := e.LabelContext(nil, good, image.Connectivity(3), seq.Binary); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("bad connectivity: %v", err)
	}
	if _, err := e.LabelContext(nil, good, image.Conn8, seq.Mode(9)); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("bad mode: %v", err)
	}
	if _, err := e.LabelIntoContext(nil, good, image.Conn8, seq.Binary, image.NewLabels(8)); !errors.Is(err, errs.ErrGeometry) {
		t.Errorf("mismatched labeling side: %v", err)
	}
	out, err := e.LabelContext(nil, good, image.Conn8, seq.Binary)
	if err != nil {
		t.Fatalf("valid input: %v", err)
	}
	want := seq.LabelBFS(good, image.Conn8, seq.Binary)
	for i := range want.Lab {
		if out.Lab[i] != want.Lab[i] {
			t.Fatalf("pixel %d: %d, want %d", i, out.Lab[i], want.Lab[i])
		}
	}
}

func TestHistogramTypedErrors(t *testing.T) {
	e := NewEngine(2)
	if _, err := e.Histogram(image.GenCross(16), 0); !errors.Is(err, errs.ErrGreyRange) {
		t.Errorf("k=0: %v", err)
	}
	if err := e.HistogramInto(nil, make([]int64, 4)); !errors.Is(err, errs.ErrBadInput) {
		t.Errorf("nil image: %v", err)
	}
	im := image.RandomGrey(16, 8, 1)
	if _, err := e.Histogram(im, 4); !errors.Is(err, errs.ErrGreyRange) {
		t.Errorf("grey out of range: %v", err)
	}
}
