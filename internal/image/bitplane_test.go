package image

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBitplanePacking cross-checks every bit of the packed plane against
// the pixel array, across sides around and on word boundaries.
func TestBitplanePacking(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 100, 127, 128, 130} {
		im := RandomBinary(n, 0.5, uint64(n))
		b := NewBitplane(im)
		if b.WPR != (n+63)/64 {
			t.Fatalf("n=%d: WPR=%d, want %d", n, b.WPR, (n+63)/64)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := b.Get(i, j), im.At(i, j) != 0; got != want {
					t.Fatalf("n=%d: bit (%d,%d)=%v, want %v", n, i, j, got, want)
				}
			}
		}
		if got, want := b.OnesCount(), im.CountForeground(); got != want {
			t.Fatalf("n=%d: OnesCount=%d, CountForeground=%d", n, got, want)
		}
	}
}

// TestBitplaneTrailingBitsZero checks the invariant word-at-a-time run
// extraction relies on: bits at column >= N of a row's last word are zero,
// even for an all-foreground image.
func TestBitplaneTrailingBitsZero(t *testing.T) {
	for _, n := range []int{1, 63, 65, 100} {
		im := New(n)
		for i := range im.Pix {
			im.Pix[i] = 1
		}
		b := NewBitplane(im)
		for i := 0; i < n; i++ {
			last := b.Row(i)[b.WPR-1]
			hi := n - (b.WPR-1)*64
			if hi < 64 && last>>uint(hi) != 0 {
				t.Fatalf("n=%d row %d: bits beyond column %d set: %#x", n, i, n, last)
			}
		}
	}
}

// TestBitplaneSetRowsReuse packs two different images through one bitplane
// and checks the second packing fully overwrites the first.
func TestBitplaneSetRowsReuse(t *testing.T) {
	full := New(70)
	for i := range full.Pix {
		full.Pix[i] = 1
	}
	empty := New(70)
	var b Bitplane
	b.ResetRect(70, 70)
	b.SetRowsPix(full.Pix, 0, 70)
	b.ResetRect(70, 70)
	b.SetRowsPix(empty.Pix, 0, 70)
	if got := b.OnesCount(); got != 0 {
		t.Fatalf("after repacking empty image: %d bits set", got)
	}
}

// TestBitplaneStripedSetRows packs disjoint row ranges separately and
// checks the union is complete.
func TestBitplaneStripedSetRows(t *testing.T) {
	im := RandomBinary(97, 0.4, 7)
	var b Bitplane
	b.ResetRect(97, 97)
	for _, r := range [][2]int{{0, 31}, {31, 64}, {64, 97}} {
		b.SetRowsPix(im.Pix, r[0], r[1])
	}
	want := NewBitplane(im)
	for i, w := range b.Words {
		if w != want.Words[i] {
			t.Fatalf("word %d: %#x, want %#x", i, w, want.Words[i])
		}
	}
}

// TestPackFullWidthLevels packs rows whose levels mix 0, 1 and 2 with
// foreground levels whose low byte is zero (256, 65536, 1<<31) and the
// all-ones level, over disjoint row ranges, at widths around both planes'
// word boundaries. Every bit must be v != 0, so a packer that looks at
// the low byte alone fails; every packed byte must be v's low byte, each
// range's wide report whether any of its levels exceeds 255, and no bit
// past a row's end may be set.
func TestPackFullWidthLevels(t *testing.T) {
	levels := []uint32{0, 1, 2, 256, 65536, 1 << 31, 0xFFFFFFFF}
	const rows = 12
	ranges := [][2]int{{0, 3}, {3, 4}, {4, 9}, {9, 12}}
	for _, n := range []int{1, 63, 64, 65, 201} {
		rng := rand.New(rand.NewSource(int64(n)))
		pix := make([]uint32, rows*n)
		fg := 0
		for i := range pix {
			pix[i] = levels[rng.Intn(len(levels))]
			if i/n == 3 {
				pix[i] %= 3 // one range of narrow levels only
			}
			if pix[i] != 0 {
				fg++
			}
		}
		var bp Bitplane
		var yp Byteplane
		bp.ResetRect(rows, n)
		yp.ResetRect(rows, n)
		for _, r := range ranges {
			bp.SetRowsPix(pix, r[0], r[1])
			wide, want := yp.SetRowsPix(pix, r[0], r[1]), false
			for _, v := range pix[r[0]*n : r[1]*n] {
				want = want || v > 255
			}
			if wide != want {
				t.Errorf("width %d rows [%d,%d): wide = %v, want %v", n, r[0], r[1], wide, want)
			}
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				v := pix[i*n+j]
				if got := bp.Get(i, j); got != (v != 0) {
					t.Fatalf("width %d: bit (%d,%d) of level %#x = %v", n, i, j, v, got)
				}
				if got := yp.Get(i, j); got != byte(v) {
					t.Fatalf("width %d: byte (%d,%d) of level %#x = %#x", n, i, j, v, got)
				}
			}
		}
		if got := bp.OnesCount(); got != fg {
			t.Errorf("width %d: %d bits set, want %d", n, got, fg)
		}
	}
}

func BenchmarkBitplaneSetRowsPix(b *testing.B) {
	for _, n := range []int{512, 1024} {
		im := RandomBinary(n, 0.5, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var bp Bitplane
			bp.ResetRect(n, n)
			b.SetBytes(int64(n * n))
			for i := 0; i < b.N; i++ {
				bp.SetRowsPix(im.Pix, 0, n)
			}
		})
	}
}
