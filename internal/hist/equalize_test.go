package hist

import (
	"testing"

	"parimg/internal/image"
)

func TestEqualizeMatchesSequential(t *testing.T) {
	// The parallel pipeline must equal image.Equalize applied on the
	// host, pixel for pixel, across p and k.
	for _, p := range []int{1, 4, 16} {
		for _, k := range []int{4, 64, 256} {
			im := image.RandomGrey(64, k, uint64(p*1000+k))
			m := mustMachine(t, p)
			res, err := Equalize(m, im, k)
			if err != nil {
				t.Fatalf("p=%d k=%d: %v", p, k, err)
			}
			h, err := im.Histogram(k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := image.Equalize(im, h)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Pix {
				if res.Image.Pix[i] != want.Pix[i] {
					t.Fatalf("p=%d k=%d: pixel %d = %d, want %d",
						p, k, i, res.Image.Pix[i], want.Pix[i])
				}
			}
			for g := range h {
				if res.H[g] != h[g] {
					t.Fatalf("p=%d k=%d: histogram bar %d", p, k, g)
				}
			}
		}
	}
}

func TestEqualizeKSmallerThanP(t *testing.T) {
	// Exercises the LUT padding for the broadcast when k < p.
	im := image.RandomGrey(64, 4, 8)
	m := mustMachine(t, 16)
	res, err := Equalize(m, im, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := im.Histogram(4)
	want, err := image.Equalize(im, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if res.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel %d", i)
		}
	}
}

func TestEqualizePreservesBackground(t *testing.T) {
	im := image.DARPAScene(64, 256, 7)
	m := mustMachine(t, 4)
	res, err := Equalize(m, im, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Pix {
		if (im.Pix[i] == 0) != (res.Image.Pix[i] == 0) {
			t.Fatalf("background changed at %d", i)
		}
	}
}

func TestEqualizeAllBackground(t *testing.T) {
	im := image.New(32)
	m := mustMachine(t, 4)
	res, err := Equalize(m, im, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Image.Pix {
		if v != 0 {
			t.Fatal("all-background image must stay background")
		}
	}
}

func TestEqualizeRejectsBadInput(t *testing.T) {
	m := mustMachine(t, 4)
	if _, err := Equalize(m, image.RandomGrey(32, 4, 1), 3); err == nil {
		t.Error("non-power-of-two k: want error")
	}
	if _, err := Equalize(m, image.RandomGrey(32, 256, 1), 16); err == nil {
		t.Error("grey out of range: want error")
	}
}

func TestOtsuThresholdBimodal(t *testing.T) {
	// Two well-separated modes at greys ~40 and ~200: the threshold
	// must fall between them.
	h := make([]int64, 256)
	for g := 30; g < 50; g++ {
		h[g] = 100
	}
	for g := 190; g < 210; g++ {
		h[g] = 100
	}
	tt := OtsuThreshold(h)
	if tt < 50 || tt > 190 {
		t.Errorf("threshold %d outside the valley [50, 190]", tt)
	}
}

func TestOtsuThresholdWeighted(t *testing.T) {
	// A heavy low mode and a light high mode: the threshold still
	// separates them.
	h := make([]int64, 64)
	h[5] = 10000
	h[50] = 100
	tt := OtsuThreshold(h)
	if tt <= 5 || tt > 50 {
		t.Errorf("threshold %d does not separate 5 and 50", tt)
	}
}

func TestOtsuThresholdDegenerate(t *testing.T) {
	if got := OtsuThreshold(make([]int64, 16)); got != 1 {
		t.Errorf("empty histogram: %d, want 1", got)
	}
	h := make([]int64, 16)
	h[7] = 42
	if got := OtsuThreshold(h); got < 1 || got > 15 {
		t.Errorf("single-level histogram: %d out of range", got)
	}
	// Background-only histograms are degenerate too.
	h = make([]int64, 16)
	h[0] = 1000
	if got := OtsuThreshold(h); got != 1 {
		t.Errorf("background-only: %d, want 1", got)
	}
}
