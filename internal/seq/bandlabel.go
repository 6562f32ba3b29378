package seq

import (
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler labels rectangular rows x cols windows with the run-based
// two-pass engine: a whole band (Label), or one strip of a band, the unit
// of work each worker of the host-parallel engine runs (LabelRows, then
// PaintEdges and Paint). It owns the packed planes and the strip's run
// table — the flat runs, per-run grey levels and seed labels, and the run
// union-find — and reuses them across calls, so a steady-state loop
// allocates nothing; the zero value is ready to use and an instance is not
// safe for concurrent use.
//
// Seed labels are band-local: the band-row-major index plus one. The
// caller lifts them into the 64-bit global label space by adding the
// band's global base offset — the band-local seed of a pixel plus the
// global index of the band's first pixel is the pixel's global row-major
// index plus one, so the lifted labeling is the one a (hypothetical)
// 64-bit whole-image run labeler would produce.
type BandLabeler struct {
	runs   []int32  // flat (start, end) column pairs, rows concatenated
	rowOff []int32  // rowOff[i] = offset into runs of row i's pairs; len rows+1
	vals   []uint32 // per-run grey level (grey mode only; empty for binary)
	seed   []uint32 // per-run seed label; a root's entry labels its fragment
	parent []int32  // run union-find, unite-by-minimum run index
	cols   int
	stop   *atomic.Bool
	bp     image.Bitplane
	bytep  image.Byteplane
}

// SetStop installs (or, with nil, removes) a cooperative cancellation flag,
// polled once per row by LabelRows and Paint: once it is set, the call
// returns early and lab is left partially written. nil (the default) costs
// nothing.
func (b *BandLabeler) SetStop(stop *atomic.Bool) { b.stop = stop }

// Label run-labels the rows x cols band in pix into lab (background gaps
// are cleared as part of the paint; lab need not be pre-zeroed) and
// returns the number of components found within the band. It is LabelRows
// for a whole band (r0 = 0) followed by Paint with no seam to map through.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	comps := b.LabelRows(pix, 0, rows, cols, conn, mode)
	b.Paint(lab, nil)
	return comps
}

// LabelRows is pass one over one strip of a band: pix holds the strip's
// rows x cols pixels, and r0 is the strip's first row within the band, so
// row i's seeds are (r0+i)*cols + column + 1. Labels are band-local seeds,
// so rows*cols of the whole band must stay within uint32. Each row is
// scanned into maximal runs, and vertically adjacent runs are united with
// unite-by-minimum. Binary mode packs the strip into the bit plane and
// takes the word-at-a-time run scan; grey mode packs the byte plane,
// falling back to full-width extraction over pix when any grey level
// exceeds a byte, and unites only runs of one grey level. Nothing is
// painted: the run table is kept for PaintEdges and Paint. Returns the
// number of components found within the strip.
func (b *BandLabeler) LabelRows(pix []uint32, r0, rows, cols int, conn image.Connectivity,
	mode Mode) int {
	grey, wide := mode == Grey, false
	if grey {
		b.bytep.ResetRect(rows, cols)
		wide = b.bytep.SetRowsPix(pix, 0, rows)
	} else {
		b.bp.ResetRect(rows, cols)
		b.bp.SetRowsPix(pix, 0, rows)
	}
	b.cols = cols
	b.runs, b.vals, b.seed, b.parent = b.runs[:0], b.vals[:0], b.seed[:0], b.parent[:0]
	b.rowOff = append(b.rowOff[:0], 0)

	unites := 0
	prevLo := 0
	for i := 0; i < rows; i++ {
		if b.stop != nil && b.stop.Load() {
			// A stopped strip keeps no rows, so no paint reads its
			// partial run table.
			b.rowOff = b.rowOff[:1]
			return 0
		}
		curLo := len(b.parent)
		switch {
		case !grey:
			b.runs = AppendRuns(b.bp.Row(i), b.runs)
		case wide:
			b.runs, b.vals = AppendGreyRunsPix(pix[i*cols:(i+1)*cols], b.runs, b.vals)
		default:
			b.runs, b.vals = AppendGreyRuns(b.bytep.Row(i), b.runs, b.vals)
		}
		base := uint32((r0+i)*cols) + 1
		for k := curLo; k < len(b.runs)/2; k++ {
			b.seed = append(b.seed, base+uint32(b.runs[2*k]))
			b.parent = append(b.parent, int32(k))
		}
		if i > 0 {
			if grey {
				unites += b.uniteRowsGrey(prevLo, curLo, len(b.parent), conn)
			} else {
				unites += b.uniteRows(prevLo, curLo, len(b.parent), conn)
			}
		}
		b.rowOff = append(b.rowOff, int32(len(b.runs)))
		prevLo = curLo
	}
	return len(b.parent) - unites
}

// PaintEdges paints the first and last rows of the last LabelRows strip
// into lab, the strip's rows*cols label slice, with their strip-local
// labels: the two rows the pixel-row seam between strips reads.
func (b *BandLabeler) PaintEdges(lab []uint32) {
	rows := len(b.rowOff) - 1
	if rows > 0 {
		b.paintRow(lab, 0)
	}
	if rows > 1 {
		b.paintRow(lab, rows-1)
	}
}

// Paint is pass two: it writes every run of the last LabelRows strip into
// lab, the strip's rows*cols label slice, once, with its final label,
// zeroing background gaps in the same sweep (lab need not be pre-zeroed).
// A fragment joins another strip only through a run of the strip's first
// or last row, so when root is non-nil it is called once per run of those
// two rows, with the label PaintEdges painted there, and its answer — the
// label's merged root — becomes the fragment's label. root must not
// write: the strips of one band paint concurrently against one shared
// forest. A nil root keeps the strip-local labels. Returns the root
// lookups made.
func (b *BandLabeler) Paint(lab []uint32, root func(uint32) uint32) (finds int64) {
	rows := len(b.rowOff) - 1
	if root != nil {
		edges := [2]int{0, rows - 1} // one entry when the first row is the last
		for _, i := range edges[:min(rows, 2)] {
			for k := b.rowOff[i] / 2; k < b.rowOff[i+1]/2; k++ {
				r := b.find(k)
				b.seed[r] = root(b.seed[r])
				finds++
			}
		}
	}
	for i := 0; i < rows; i++ {
		if b.stop != nil && b.stop.Load() {
			break
		}
		b.paintRow(lab, i)
	}
	return finds
}

// paintRow paints strip row i: every run with its root's seed label, a
// span write per run instead of a store per pixel, and the background gaps
// zeroed. Each painted run is left pointing straight at its root, so later
// finds through it take one step.
func (b *BandLabeler) paintRow(lab []uint32, i int) {
	row := lab[i*b.cols : (i+1)*b.cols]
	col := int32(0)
	for k := b.rowOff[i] / 2; k < b.rowOff[i+1]/2; k++ {
		s, e := b.runs[2*k], b.runs[2*k+1]
		zero32(row[col:s])
		r := b.find(k)
		b.parent[k] = r
		Fill32(row[s:e], b.seed[r])
		col = e
	}
	zero32(row[col:])
}

// find returns the root of run x's set with path halving. Seed labels are
// strictly increasing in run index, so the minimum root index is also the
// minimum seed label.
func (b *BandLabeler) find(x int32) int32 {
	for b.parent[x] != x {
		b.parent[x] = b.parent[b.parent[x]]
		x = b.parent[x]
	}
	return x
}

// unite merges the sets of runs a and b, linking the larger root under the
// smaller (unite-by-minimum). Returns true when two sets became one.
func (b *BandLabeler) unite(x, y int32) bool {
	rx, ry := b.find(x), b.find(y)
	if rx == ry {
		return false
	}
	if rx > ry {
		rx, ry = ry, rx
	}
	b.parent[ry] = rx
	return true
}

// Runs returns the last labeled window's flat (start, end) column pairs,
// valid until the next call.
func (b *BandLabeler) Runs() []int32 { return b.runs }
