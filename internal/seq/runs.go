package seq

import (
	"math/bits"
	"sync/atomic"

	"parimg/internal/image"
)

// This file implements the run-based (two-pass) connected components
// labeler over a bit-packed binary plane, in the lineage of Gupta et al.'s
// two-pass parallel CCL: rows are scanned word-at-a-time into maximal
// foreground runs, vertically adjacent runs are united in a union-find
// with unite-by-minimum, and a second pass paints each run with its root's
// seed label using span writes. Because a run's seed label is the global
// row-major index of its first pixel plus one — and the minimum-index
// pixel of any component necessarily starts a run — the root of a merged
// set carries exactly the label the row-major BFS labeler assigns, so the
// output is pixel-for-pixel identical to LabelBFS in Binary mode.
//
// The RunLabeler here labels one packed horizontal strip. BandLabeler
// packs a strip and runs it — the unit of work the host-parallel engine
// runs per worker — and LabelRuns wraps it over a whole image as the
// sequential run-based baseline.

// AppendRuns appends the maximal set-bit runs of one packed row to dst as
// (start, end) half-open column pairs, scanning whole 64-bit words with
// trailing-zero counts instead of per-pixel branches. Bits beyond the
// row's logical width must be zero (the Bitplane invariant), so runs never
// need end-of-row clipping.
func AppendRuns(words []uint64, dst []int32) []int32 {
	var start int32
	carry := false
	for wi, x := range words {
		base := int32(wi) * 64
		if carry {
			// A run is open across the word boundary: it ends at the
			// first zero bit of this word.
			if x == ^uint64(0) {
				continue
			}
			t := int32(bits.TrailingZeros64(^x))
			dst = append(dst, start, base+t)
			carry = false
			x &^= 1<<uint(t) - 1
		}
		for x != 0 {
			s := int32(bits.TrailingZeros64(x))
			ones := int32(bits.TrailingZeros64(^(x >> uint(s))))
			if s+ones == 64 {
				start = base + s
				carry = true
				break
			}
			dst = append(dst, base+s, base+s+ones)
			x &^= (1<<uint(ones) - 1) << uint(s)
		}
	}
	if carry {
		// The run reached the top bit of the last word; by the trailing-
		// zero-bits invariant this happens only when the row width is a
		// multiple of 64, so the end is exactly the row width.
		dst = append(dst, start, int32(len(words))*64)
	}
	return dst
}

// Fill32 sets every element of s to v. Long spans are filled with doubling
// copies (memmove under the hood), short ones with a plain loop — the
// "memset-style" span write of the run labeler's paint pass.
func Fill32(s []uint32, v uint32) {
	if len(s) < 32 {
		for i := range s {
			s[i] = v
		}
		return
	}
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// RunLabeler is a reusable run-based labeler for one horizontal strip of a
// binary or grey image. It owns all scratch (the flat run table, per-run
// grey values and seed labels, and the run union-find) and keeps the run
// table alive after LabelStrip/LabelGreyStrip so the strip's runs can be
// revisited (Relabel, the parallel engine's final update, does). The
// zero value is ready to use. A RunLabeler is not safe for concurrent use;
// give each worker its own.
type RunLabeler struct {
	runs   []int32  // flat (start, end) column pairs, rows concatenated
	rowOff []int32  // rowOff[i] = offset into runs of row i's pairs; len rows+1
	vals   []uint32 // per-run grey level (grey mode only; empty for binary)
	seed   []uint32
	parent []int32

	// Stop, when non-nil, is a cooperative cancellation flag checked once
	// per row by LabelStrip: once set, labeling returns early with the
	// strip partially written. nil (the default) costs nothing.
	Stop *atomic.Bool
}

// LabelStrip labels the rows packed in bp — Binary mode: every set bit is
// foreground — into lab, the strip's rows*N label slice. bp holds only
// the strip: plane row i is strip row i. r0 is the strip's first row
// within its band, and only the seed labels use it: row i's seeds are
// (r0+i)*N + column + 1, so strips labeled by different workers carry
// band-unique labels with no coordination. When clear is true, background
// gaps are zeroed as part of the paint pass (lab need not be pre-cleared);
// when false, lab must already be zero. Returns the number of components
// found within the strip.
func (rl *RunLabeler) LabelStrip(bp *image.Bitplane, r0, rows int, conn image.Connectivity,
	clear bool, lab []uint32) int {
	n := bp.N
	rl.runs = rl.runs[:0]
	rl.vals = rl.vals[:0]
	rl.seed = rl.seed[:0]
	rl.parent = rl.parent[:0]
	rl.rowOff = rl.rowOff[:0]

	// Pass one: extract each row's runs and unite them with the
	// overlapping runs of the row above.
	unites := 0
	prevLo := 0
	for i := 0; i < rows; i++ {
		if rl.Stop != nil && rl.Stop.Load() {
			rl.rowOff = append(rl.rowOff, int32(len(rl.runs)))
			return 0
		}
		rl.rowOff = append(rl.rowOff, int32(len(rl.runs)))
		curLo := len(rl.parent)
		rl.runs = AppendRuns(bp.Row(i), rl.runs)
		base := uint32((r0+i)*n) + 1
		for k := curLo; k < len(rl.runs)/2; k++ {
			rl.seed = append(rl.seed, base+uint32(rl.runs[2*k]))
			rl.parent = append(rl.parent, int32(k))
		}
		if i > 0 {
			unites += rl.uniteRows(prevLo, curLo, len(rl.parent), conn)
		}
		prevLo = curLo
	}
	rl.rowOff = append(rl.rowOff, int32(len(rl.runs)))

	rl.paint(rows, n, clear, lab)
	return len(rl.parent) - unites
}

// paint is pass two of both the binary and grey strip labelers: every run
// is painted with its root's seed label, a span write per run instead of a
// store per pixel, and left pointing straight at its root, so Relabel
// reaches any run's root with one parent read. When clear is true,
// background gaps are zeroed in the same sweep.
func (rl *RunLabeler) paint(rows, n int, clear bool, lab []uint32) {
	for i := 0; i < rows; i++ {
		row := lab[i*n : (i+1)*n]
		lo, hi := rl.rowOff[i]/2, rl.rowOff[i+1]/2
		col := int32(0)
		for k := lo; k < hi; k++ {
			s, e := rl.runs[2*k], rl.runs[2*k+1]
			if clear {
				zero32(row[col:s])
			}
			r := rl.find(k)
			rl.parent[k] = r
			Fill32(row[s:e], rl.seed[r])
			col = e
		}
		if clear {
			zero32(row[col:])
		}
	}
}

// Relabel moves the strip's fragments onto the roots a cross-strip merge
// gave them. lab is the strip's rows*n label slice as the last
// LabelStrip/LabelGreyStrip painted it, and root maps a painted label to
// its merged root. A fragment joins another strip only through a run in
// the strip's first or last row, so root is called once per run of those
// two rows and its answer retargets the run's fragment; every run whose
// fragment moved is then repainted with one span write. root must not
// write: the strips of one image relabel concurrently against one shared
// forest. Polls Stop once per row. Returns the root lookups made and the
// pixels rewritten.
func (rl *RunLabeler) Relabel(lab []uint32, n int, root func(uint32) uint32) (finds, relab int64) {
	rows := len(rl.rowOff) - 1
	outer := [2]int{0, rows - 1} // one entry when the first row is the last
	for _, i := range outer[:min(rows, 2)] {
		for k := rl.rowOff[i] / 2; k < rl.rowOff[i+1]/2; k++ {
			r := rl.parent[k]
			rl.seed[r] = root(rl.seed[r])
			finds++
		}
	}
	for i := 0; i < rows; i++ {
		if rl.Stop != nil && rl.Stop.Load() {
			break
		}
		row := lab[i*n : (i+1)*n]
		for k := rl.rowOff[i] / 2; k < rl.rowOff[i+1]/2; k++ {
			s, e := rl.runs[2*k], rl.runs[2*k+1]
			if to := rl.seed[rl.parent[k]]; to != row[s] {
				Fill32(row[s:e], to)
				relab += int64(e - s)
			}
		}
	}
	return finds, relab
}

// uniteRows unites each run of the current row [curLo, curHi) with every
// run of the previous row [prevLo, curLo) it is adjacent to, by a two-
// pointer sweep over the two sorted disjoint run lists. Under Conn4 two
// runs are adjacent when their column intervals overlap; under Conn8 the
// window widens by one column on each side (diagonal adjacency). Because
// maximal runs in a row are separated by at least one background column,
// advancing the run with the smaller end never skips an adjacency.
// Returns the number of unites that merged two distinct sets.
func (rl *RunLabeler) uniteRows(prevLo, curLo, curHi int, conn image.Connectivity) int {
	var win int32
	if conn == image.Conn8 {
		win = 1
	}
	unites := 0
	p, c := prevLo, curLo
	for p < curLo && c < curHi {
		a0, a1 := rl.runs[2*p], rl.runs[2*p+1]
		b0, b1 := rl.runs[2*c], rl.runs[2*c+1]
		if a0 < b1+win && b0 < a1+win {
			if rl.unite(int32(p), int32(c)) {
				unites++
			}
		}
		if a1 <= b1 {
			p++
		} else {
			c++
		}
	}
	return unites
}

// find returns the root of run x's set with path halving. Seed labels are
// strictly increasing in run index, so the minimum root index is also the
// minimum seed label.
func (rl *RunLabeler) find(x int32) int32 {
	for rl.parent[x] != x {
		rl.parent[x] = rl.parent[rl.parent[x]]
		x = rl.parent[x]
	}
	return x
}

// unite merges the sets of runs a and b, linking the larger root under the
// smaller (unite-by-minimum). Returns true when two sets became one.
func (rl *RunLabeler) unite(a, b int32) bool {
	ra, rb := rl.find(a), rl.find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	rl.parent[rb] = ra
	return true
}

// Runs returns the strip's flat (start, end) column pairs, valid until the
// next LabelStrip call.
func (rl *RunLabeler) Runs() []int32 { return rl.runs }

// zero32 clears s; the compiler lowers this loop to a memclr.
func zero32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// LabelRuns labels a whole binary image with the run-based two-pass
// algorithm. The result is pixel-for-pixel identical to LabelBFS with
// Binary mode (every nonzero pixel is foreground). It is the sequential
// run-based baseline; hot paths should reuse a RunLabeler and Bitplane via
// the parallel engine instead.
func LabelRuns(im *image.Image, conn image.Connectivity) *image.Labels {
	bp := image.NewBitplane(im)
	out := image.NewLabels(im.N)
	var rl RunLabeler
	rl.LabelStrip(bp, 0, im.N, conn, false, out.Lab)
	return out
}
