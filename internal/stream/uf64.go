// Package stream labels the connected components of images too large to
// hold in memory: an out-of-core pipeline that reads horizontal band
// windows of an on-disk PGM through image.PGMHeader, labels each band on
// the host-parallel band engine (par.Engine.LabelBand, which splits a band
// into strips across its workers, so a band uses every core), and merges
// each band into a frontier of the components still open at the previous
// band's bottom row through the same slab-merge seam the engine uses for
// its strip boundaries. A band's labeling is the engine's run tables: the
// census folds its runs into their components and the write pass renders
// them as spans, so no band is ever painted but its first and last label
// rows, one at a time, for the seam and the frontier. A component that no
// longer reaches the bottom row closes and is counted, so the merge state
// stays O(cols + TopK), plus one pair per merge of two open components
// when a write pass or a checkpoint reads them. Labels live in a 64-bit
// global space — the pixel's global row-major index plus one — so the
// total pixel count may exceed 2^32 and the resident MaxSide ceiling does
// not apply; memory stays one band of pixels and its run tables, plus the
// frontier.
package stream

import "parimg/internal/par"

// UnionFind64 is the sparse unite-by-minimum forest over the 64-bit
// global label space: the seam forest the resident engine also runs, at
// uint64 so a streamed image's pixel count may exceed 2^32. Every root is
// its set's minimum global seed label — the label the resident sequential
// labeler would paint. The write pass unites pass 1's merges of open
// components in one to map band-time roots to final roots. Not safe for
// concurrent use.
type UnionFind64 = par.Forest[uint64]

// NewUnionFind64 returns an empty forest (every label its own root).
func NewUnionFind64() *UnionFind64 { return new(UnionFind64) }

// Labels64 is one band's labeling lifted into the global space: the
// band-local uint32 labels (band-row-major seed index + 1, as the band
// labeler assigns) plus the band's global base offset. A pixel's global
// label is Base + its band-local label, which equals its component's
// minimum global row-major seed index + 1 within the band. The pipeline
// no longer lifts whole rows — its frontier labels the previous row by
// slot — so the library has no caller left; it stays for code that
// replays the band seam over lifted rows outside the package.
type Labels64 struct {
	// Base is the global seed offset of the band: r0 * cols for a band
	// starting at absolute row r0.
	Base uint64
	// Rows and Cols are the band dimensions.
	Rows, Cols int
	// Lab holds the Rows*Cols band-local labels (0 = background).
	Lab []uint32
}

// LiftRow writes row i's labels lifted into the global 64-bit space into
// dst (grown as needed and returned): background stays 0, foreground
// becomes Base + the band-local label.
func (l *Labels64) LiftRow(i int, dst []uint64) []uint64 {
	if cap(dst) < l.Cols {
		dst = make([]uint64, l.Cols)
	}
	dst = dst[:l.Cols]
	row := l.Lab[i*l.Cols : (i+1)*l.Cols]
	for j, v := range row {
		if v == 0 {
			dst[j] = 0
			continue
		}
		dst[j] = l.Base + uint64(v)
	}
	return dst
}
