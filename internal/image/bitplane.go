package image

import "math/bits"

// Bitplane is a bit-packed binary view of an image: one bit per pixel, 64
// pixels per word, rows padded to a whole number of words so every row
// starts word-aligned. Bit j%64 of Words[i*WPR + j/64] is set exactly when
// pixel (i, j) is foreground (grey level > 0). Bits at column >= N of a
// row's last word are always zero, so word-at-a-time scans never need an
// end-of-row mask.
//
// The bitplane is the substrate of the run-based labeler: foreground runs
// fall out of bits.TrailingZeros64 on whole words instead of a byte-per-
// pixel loop, turning the scan phase from one branch per pixel into a
// couple of bit operations per 64 pixels.
type Bitplane struct {
	// N is the row width in pixels (the image side of a square plane).
	N int
	// WPR is the number of words per row: (N + 63) / 64.
	WPR int
	// Words holds the packed rows, WPR words each, row-major.
	Words []uint64
}

// NewBitplane packs im into a fresh bitplane.
func NewBitplane(im *Image) *Bitplane {
	var b Bitplane
	b.ResetRect(im.N, im.N)
	b.SetRowsPix(im.Pix, 0, im.N)
	return &b
}

// ResetRect sizes the bitplane for a rectangular rows x cols window (a
// band, or one strip of a band), reusing the
// backing array when large enough. Word contents are unspecified until
// SetRowsPix covers them; only growth allocates.
func (b *Bitplane) ResetRect(rows, cols int) {
	b.N = cols
	b.WPR = (cols + 63) / 64
	words := rows * b.WPR
	if cap(b.Words) < words {
		b.Words = make([]uint64, words)
		return
	}
	b.Words = b.Words[:words]
}

// SetRowsPix packs rows [r0, r1) of a row-major pixel buffer whose stride
// is the plane's own width into the bitplane, overwriting every word of
// those rows (no prior clear needed). Disjoint row ranges may be packed
// from different goroutines concurrently.
//
// The packing has no branch per pixel: (v|-v)>>31 is 1 exactly when the
// uint32 v is nonzero, whatever its low byte, and four such bits are
// gathered into a nibble per step.
func (b *Bitplane) SetRowsPix(pix []uint32, r0, r1 int) {
	n := b.N
	for i := r0; i < r1; i++ {
		row := pix[i*n : (i+1)*n]
		out := b.Words[i*b.WPR : (i+1)*b.WPR]
		for wi := range out {
			px := row[wi*64 : min(wi*64+64, n)]
			var w uint64
			j := 0
			for ; j+4 <= len(px); j += 4 {
				q := px[j : j+4 : j+4]
				nib := (q[0]|-q[0])>>31 | (q[1]|-q[1])>>31<<1 | (q[2]|-q[2])>>31<<2 | (q[3]|-q[3])>>31<<3
				w |= uint64(nib) << uint(j)
			}
			for ; j < len(px); j++ {
				w |= uint64((px[j]|-px[j])>>31) << uint(j)
			}
			out[wi] = w
		}
	}
}

// Row returns the packed words of row i.
func (b *Bitplane) Row(i int) []uint64 { return b.Words[i*b.WPR : (i+1)*b.WPR] }

// Get reports whether pixel (i, j) is foreground.
func (b *Bitplane) Get(i, j int) bool {
	return b.Words[i*b.WPR+j/64]>>(uint(j)%64)&1 != 0
}

// OnesCount returns the number of foreground pixels, a word-at-a-time
// equivalent of Image.CountForeground for cross-checking the packing.
func (b *Bitplane) OnesCount() int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}
