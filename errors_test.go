package parimg

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestErrorTaxonomy drives every public validation path with hostile input
// and asserts the returned error matches the advertised sentinel under
// errors.Is (and always the ErrBadInput root).
func TestErrorTaxonomy(t *testing.T) {
	newSim := func(p int) func() error {
		return func() error { _, err := NewSimulator(p, CM5); return err }
	}
	ctx := context.Background()
	oversized := &Image{N: MaxSide + 1} // nil Pix: validation must fire first
	cases := []struct {
		name string
		fn   func() error
		kind error
	}{
		{"p zero", newSim(0), ErrGeometry},
		{"p negative", newSim(-8), ErrGeometry},
		{"p not power of two", newSim(12), ErrGeometry},
		{"image side zero", func() error { _, err := NewImage(0); return err }, ErrGeometry},
		{"image side negative", func() error { _, err := NewImage(-4); return err }, ErrGeometry},
		{"image side overflow", func() error { _, err := NewImage(MaxSide + 1); return err }, ErrLabelOverflow},
		{"labels side zero", func() error { _, err := NewLabels(0); return err }, ErrGeometry},
		{"labels side overflow", func() error { _, err := NewLabels(MaxSide + 1); return err }, ErrLabelOverflow},
		{"pattern unknown", func() error { _, err := GeneratePattern(PatternID(42), 64); return err }, ErrBadInput},
		{"random density over 1", func() error { _, err := RandomBinary(64, 1.01, 1); return err }, ErrBadInput},
		{"random grey k under 2", func() error { _, err := RandomGrey(64, 1, 1); return err }, ErrGreyRange},
		{"sequential hist k zero", func() error { _, err := HistogramSequential(GenCrossImage(32), 0); return err }, ErrGreyRange},
		{"sequential hist grey over k", func() error { _, err := HistogramSequential(must(RandomGrey(32, 16, 1)), 4); return err }, ErrGreyRange},
		{"parallel hist k zero", func() error { _, err := Histogram(ctx, GenCrossImage(32), 0); return err }, ErrGreyRange},
		{"parallel hist nil image", func() error { _, err := Histogram(ctx, nil, 8); return err }, ErrBadInput},
		{"non-square PGM", func() error { _, err := ReadPGM(strings.NewReader("P5\n2 3\n255\n......")); return err }, ErrGeometry},
		{"zero-side PGM", func() error { _, err := ReadPGM(strings.NewReader("P5\n0 0\n255\n")); return err }, ErrGeometry},
		{"truncated PGM", func() error { _, err := ReadPGM(strings.NewReader("P5\n4 4\n255\nxy")); return err }, ErrBadInput},
		{"oversized PGM header", func() error { _, err := ReadPGM(strings.NewReader("P5\n999999 999999\n255\n")); return err }, ErrLabelOverflow},
		{"census mismatched sides", func() error { _, err := Census(must(NewLabels(8)), GenCrossImage(16)); return err }, ErrGeometry},
		{"classify mismatched sides", func() error { _, err := ClassifyObjects(must(NewLabels(8)), GenCrossImage(16)); return err }, ErrGeometry},
		{"equalize grey over len(h)", func() error { _, err := Equalize(must(RandomGrey(16, 16, 1)), []int64{1, 1, 1, 1}); return err }, ErrGreyRange},
		{"equalize header-only image", func() error { _, err := Equalize(oversized, make([]int64, 4)); return err }, ErrLabelOverflow},
		{"threshold malformed image", func() error { _, err := Threshold(&Image{N: 4, Pix: nil}, 1); return err }, ErrGeometry},
		{"seq oversized image", func() error { _, err := LabelSequential(oversized, Conn8, Binary); return err }, ErrLabelOverflow},
		{"par oversized image", func() error { _, err := Label(ctx, oversized, LabelOptions{}); return err }, ErrLabelOverflow},
		{"par bad connectivity", func() error {
			_, err := Label(ctx, GenCrossImage(16), LabelOptions{Conn: Connectivity(5)})
			return err
		}, ErrBadInput},
		{"par bad mode", func() error { _, err := Label(ctx, GenCrossImage(16), LabelOptions{Mode: Mode(7)}); return err }, ErrBadInput},
	}
	cases = append(cases, simCases(t, oversized)...)
	for _, c := range cases {
		err := c.fn()
		if err == nil {
			t.Errorf("%s: want error, got nil", c.name)
			continue
		}
		if !errors.Is(err, c.kind) {
			t.Errorf("%s: error %q is not %v", c.name, err, c.kind)
		}
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: error %q is outside the taxonomy (not ErrBadInput)", c.name, err)
		}
	}
}

// simCases are the taxonomy cases that need a live simulator.
func simCases(t *testing.T, oversized *Image) []struct {
	name string
	fn   func() error
	kind error
} {
	t.Helper()
	sim, err := NewSimulator(4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return []struct {
		name string
		fn   func() error
		kind error
	}{
		{"sim oversized image", func() error { _, err := sim.Label(ctx, oversized, LabelOptions{}); return err }, ErrLabelOverflow},
		{"sim bad connectivity", func() error {
			_, err := sim.Label(ctx, GenCrossImage(16), LabelOptions{Conn: Connectivity(5)})
			return err
		}, ErrBadInput},
		{"sim hist k not power of two", func() error { _, err := sim.Histogram(ctx, GenCrossImage(16), 3); return err }, ErrGreyRange},
		{"sim hist grey over k", func() error { _, err := sim.Histogram(ctx, must(RandomGrey(16, 16, 1)), 4); return err }, ErrGreyRange},
		{"sim equalize bad k", func() error { _, err := sim.Equalize(GenCrossImage(16), 0); return err }, ErrGreyRange},
		{"sim census mismatch", func() error { _, err := sim.Census(GenCrossImage(16), must(NewLabels(8))); return err }, ErrGeometry},
	}
}

// GenCrossImage is a tiny helper for the error tables: a valid cross
// pattern at side n.
func GenCrossImage(n int) *Image { return must(GeneratePattern(Cross, n)) }

// must unwraps the result of an entry point called with arguments the test
// knows to be valid, such as a fixture image. An error there is a bug in
// the test, so it panics, like regexp.MustCompile.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestInputErrorContext asserts the concrete *InputError is retrievable
// with errors.As and carries the offending parameters.
func TestInputErrorContext(t *testing.T) {
	_, err := NewSimulator(12, CM5)
	var ie *InputError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not unwrap to *InputError", err)
	}
	if ie.P != 12 {
		t.Errorf("InputError.P = %d, want 12", ie.P)
	}
	_, err = Label(context.Background(), &Image{N: MaxSide + 1}, LabelOptions{})
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not unwrap to *InputError", err)
	}
	if ie.N != MaxSide+1 {
		t.Errorf("InputError.N = %d, want %d", ie.N, MaxSide+1)
	}
}

// TestCommentPGMAccepted pins the '#'-comment fix at the public boundary.
func TestCommentPGMAccepted(t *testing.T) {
	data := "P5\n# made by hand\n2 2\n255\n" + string([]byte{1, 2, 3, 4})
	im, err := ReadPGM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if im.N != 2 || im.Pix[3] != 4 {
		t.Errorf("parsed %v", im)
	}
}

// TestValidInputsStillExact pins the non-regression half of the contract:
// after all the validation work, valid inputs still produce results that
// are pixel-identical across backends.
func TestValidInputsStillExact(t *testing.T) {
	im := must(GeneratePattern(DualSpiral, 64))
	want := must(LabelSequential(im, Conn8, Binary))
	// A nil context behaves as context.Background() on both backends.
	var noCtx context.Context
	got, err := Label(noCtx, im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Lab {
		if got.Lab[i] != want.Lab[i] {
			t.Fatalf("par pixel %d: %d, want %d", i, got.Lab[i], want.Lab[i])
		}
	}
	sim, err := NewSimulator(4, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Label(noCtx, im, LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Lab {
		if res.Labels.Lab[i] != want.Lab[i] {
			t.Fatalf("sim pixel %d: %d, want %d", i, res.Labels.Lab[i], want.Lab[i])
		}
	}
}
