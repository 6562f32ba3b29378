package image

import (
	"sync"
	"testing"
)

// TestByteplanePackingRoundTrips checks that every pixel of a packed image
// reads back through Get and through the raw words of Row, across widths
// on both sides of the 8-pixel word boundary.
func TestByteplanePackingRoundTrips(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 64, 100} {
		im := RandomGrey(n, 256, uint64(n)+11)
		bp, wide := NewByteplane(im)
		if wide {
			t.Fatalf("n=%d: 8-bit image reported wide", n)
		}
		if bp.N != n || bp.WPR != (n+7)/8 || len(bp.Words) != n*bp.WPR {
			t.Fatalf("n=%d: shape N=%d WPR=%d words=%d", n, bp.N, bp.WPR, len(bp.Words))
		}
		for i := 0; i < n; i++ {
			row := bp.Row(i)
			for j := 0; j < n; j++ {
				want := byte(im.Pix[i*n+j])
				if got := bp.Get(i, j); got != want {
					t.Fatalf("n=%d Get(%d,%d) = %d, want %d", n, i, j, got, want)
				}
				if got := byte(row[j/8] >> (uint(j) % 8 * 8)); got != want {
					t.Fatalf("n=%d Row(%d) byte %d = %d, want %d", n, i, j, got, want)
				}
			}
		}
	}
}

// TestByteplanePadsTailBytesZero checks the invariant the run extractor's
// word scan relies on: bytes at column >= N in a row's last word are zero,
// even when packed over a dirty reused backing array.
func TestByteplanePadsTailBytesZero(t *testing.T) {
	var bp Byteplane
	// Dirty the backing array with an all-ones plane first.
	big := New(16)
	for i := range big.Pix {
		big.Pix[i] = 255
	}
	bp.ResetRect(16, 16)
	bp.SetRowsPix(big.Pix, 0, 16)

	// Repack a smaller all-foreground image whose width is mid-word.
	im := New(11)
	for i := range im.Pix {
		im.Pix[i] = 9
	}
	bp.ResetRect(11, 11)
	if bp.SetRowsPix(im.Pix, 0, 11) {
		t.Fatal("8-bit image reported wide")
	}
	for i := 0; i < 11; i++ {
		last := bp.Row(i)[bp.WPR-1]
		for j := 11 % 8; j < 8; j++ {
			if b := byte(last >> (uint(j) * 8)); b != 0 {
				t.Fatalf("row %d pad byte %d = %d, want 0", i, j, b)
			}
		}
	}
}

// TestByteplaneWideDetection checks that SetRowsPix reports truncation exactly
// when a pixel exceeds a byte, and that only the strips containing such
// pixels report it.
func TestByteplaneWideDetection(t *testing.T) {
	im := New(8)
	im.Set(6, 3, 256) // truncates to 0
	var bp Byteplane
	bp.ResetRect(8, 8)
	if bp.SetRowsPix(im.Pix, 0, 4) {
		t.Fatal("rows [0,4) have no wide pixels but reported wide")
	}
	if !bp.SetRowsPix(im.Pix, 4, 8) {
		t.Fatal("rows [4,8) contain a wide pixel but reported narrow")
	}
	if _, wide := NewByteplane(im); !wide {
		t.Fatal("NewByteplane missed the wide pixel")
	}
	if got := bp.Get(6, 3); got != 0 {
		t.Fatalf("truncated pixel packs to %d, want low byte 0", got)
	}
}

// TestByteplaneResetReuse checks that shrinking and regrowing reuses the
// backing array (no per-call allocation at steady state) and keeps packed
// contents correct.
func TestByteplaneResetReuse(t *testing.T) {
	var bp Byteplane
	bp.ResetRect(64, 64)
	base := &bp.Words[:cap(bp.Words)][0]
	for _, n := range []int{64, 16, 33, 64} {
		im := RandomGrey(n, 200, uint64(n))
		bp.ResetRect(n, n)
		if &bp.Words[:cap(bp.Words)][0] != base {
			t.Fatalf("ResetRect(%d, %d) reallocated", n, n)
		}
		bp.SetRowsPix(im.Pix, 0, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := bp.Get(i, j), byte(im.Pix[i*n+j]); got != want {
					t.Fatalf("n=%d (%d,%d) = %d, want %d", n, i, j, got, want)
				}
			}
		}
	}
}

// TestByteplaneConcurrentSetRows packs disjoint strips from several
// goroutines and verifies the result — run with -race this doubles as the
// data-race check.
func TestByteplaneConcurrentSetRows(t *testing.T) {
	const n, W = 67, 5
	im := RandomGrey(n, 256, 99)
	var bp Byteplane
	bp.ResetRect(n, n)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		r0, r1 := w*n/W, (w+1)*n/W
		wg.Add(1)
		go func() {
			defer wg.Done()
			bp.SetRowsPix(im.Pix, r0, r1)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := bp.Get(i, j), byte(im.Pix[i*n+j]); got != want {
				t.Fatalf("(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}
