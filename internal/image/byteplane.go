package image

// Byteplane is a byte-packed grey view of an image: one byte per pixel,
// eight pixels per word, rows padded to a whole number of words so every
// row starts word-aligned. Byte j%8 of Words[i*WPR + j/8] holds the grey
// level of pixel (i, j), and bytes at column >= N of a row's last word are
// always zero, so a word-at-a-time scan terminates any open run exactly at
// column N without end-of-row clipping.
//
// The byteplane is the grey analogue of Bitplane and the substrate of the
// grey run extractor: a whole word equal to the current run's value
// splatted into every byte extends the run by eight pixels in one compare,
// and an all-zero word skips eight background pixels, so the coarse scan
// touches uniform imagery (the common case on the DARPA scene) at one
// comparison per eight pixels and drops to a per-byte fine scan only
// inside words that contain a boundary.
//
// A byte cannot represent grey levels above 255. SetRowsPix reports
// whether any packed pixel was truncated; callers with such "wide" strips
// must take a full-width extraction path over the raw pixels instead (the
// run labeler's seq.BandLabeler.LabelRows does exactly that).
type Byteplane struct {
	// N is the row width in pixels (the image side of a square plane).
	N int
	// WPR is the number of words per row: (N + 7) / 8.
	WPR int
	// Words holds the packed rows, WPR words each, row-major.
	Words []uint64
}

// NewByteplane packs im into a fresh byteplane, reporting whether any grey
// level exceeded 255 (in which case the packed bytes are truncated and a
// caller must not use them for value comparisons).
func NewByteplane(im *Image) (*Byteplane, bool) {
	var b Byteplane
	b.ResetRect(im.N, im.N)
	wide := b.SetRowsPix(im.Pix, 0, im.N)
	return &b, wide
}

// ResetRect sizes the byteplane for a rectangular rows x cols window (a
// band, or one strip of a band), reusing the
// backing array when large enough. Word contents are unspecified until
// SetRowsPix covers them; only growth allocates.
func (b *Byteplane) ResetRect(rows, cols int) {
	b.N = cols
	b.WPR = (cols + 7) / 8
	words := rows * b.WPR
	if cap(b.Words) < words {
		b.Words = make([]uint64, words)
		return
	}
	b.Words = b.Words[:words]
}

// SetRowsPix packs rows [r0, r1) of a row-major pixel buffer whose stride
// is the plane's own width into the byteplane, overwriting every word of
// those rows (no prior clear needed), and reports whether any pixel's grey
// level exceeded 255 — such pixels are truncated to their low byte, so on
// a true return the packed rows must not be used for grey value
// comparisons. Disjoint row ranges may be packed from different
// goroutines concurrently.
func (b *Byteplane) SetRowsPix(pix []uint32, r0, r1 int) (wide bool) {
	n := b.N
	for i := r0; i < r1; i++ {
		row := pix[i*n : (i+1)*n]
		out := b.Words[i*b.WPR : (i+1)*b.WPR]
		for wi := range out {
			j0 := wi * 8
			j1 := j0 + 8
			if j1 > n {
				j1 = n
			}
			var w uint64
			for j := j0; j < j1; j++ {
				v := row[j]
				if v > 255 {
					wide = true
				}
				w |= uint64(byte(v)) << (uint(j-j0) * 8)
			}
			out[wi] = w
		}
	}
	return wide
}

// Row returns the packed words of row i.
func (b *Byteplane) Row(i int) []uint64 { return b.Words[i*b.WPR : (i+1)*b.WPR] }

// Get returns the packed (possibly truncated) grey level of pixel (i, j).
func (b *Byteplane) Get(i, j int) byte {
	return byte(b.Words[i*b.WPR+j/8] >> (uint(j) % 8 * 8))
}
