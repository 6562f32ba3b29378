package seq

import (
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler labels rectangular rows x cols windows with the run-based
// two-pass engine: a whole band (Label), or one strip of a band, the unit
// of work each worker of the host-parallel engine runs (LabelRows,
// PaintEdges, Resolve, then Paint when the caller wants pixels). It owns
// the packed planes and the strip's run table — the flat runs, per-run
// grey levels and labels, and the run union-find — and reuses them across
// calls, so a steady-state loop allocates nothing; the zero value is ready
// to use and an instance is not safe for concurrent use.
//
// After Resolve the run table is the strip's labeling: Row walks every
// run with its final label, so a consumer that only folds over components
// or renders them never needs the painted plane.
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
	label  []uint32 // per-run label: its seed until Resolve, its final label after
	parent []int32  // run union-find, unite-by-minimum run index
	base   uint32   // the band-local seed of the strip's first pixel
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
// for a whole band (r0 = 0), Resolve with no seam to map through, and
// Paint.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	comps := b.LabelRows(pix, 0, rows, cols, conn, mode)
	b.Resolve(nil)
	b.Paint(lab)
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
// painted: the run table is kept for PaintEdges, Resolve and Paint.
// Returns the number of components found within the strip.
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
	b.cols, b.base = cols, uint32(r0*cols)+1
	b.runs, b.vals, b.label, b.parent = b.runs[:0], b.vals[:0], b.label[:0], b.parent[:0]
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
		base := b.base + uint32(i*cols)
		for k := curLo; k < len(b.runs)/2; k++ {
			b.label = append(b.label, base+uint32(b.runs[2*k]))
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

// PaintEdges paints the first and last rows of the last LabelRows strip,
// with their strip-local labels, into first and last (cols labels each):
// the two rows the pixel-row seam between strips reads. In a one-row strip
// both get the one row. It gives the runs of those rows their strip-local
// root's label first, which Resolve later overwrites with the final one.
func (b *BandLabeler) PaintEdges(first, last []uint32) {
	rows := b.Rows()
	if rows == 0 {
		return
	}
	for _, i := range [2]int{0, rows - 1} {
		for k := b.rowOff[i] / 2; k < b.rowOff[i+1]/2; k++ {
			b.label[k] = b.label[b.find(k)]
		}
	}
	b.PaintRow(first, 0)
	b.PaintRow(last, rows-1)
}

// Resolve finishes the labeling of the last LabelRows strip: afterwards
// every run carries its final label, which Row, PaintRow and Paint read.
// A fragment joins another strip only through a run of the strip's first
// or last row, so when root is non-nil it is called once per run of those
// two rows, with the label PaintEdges painted there, and its answer — the
// label's merged root — becomes the fragment's label. root must not
// write: the strips of one band resolve concurrently against one shared
// forest. A nil root keeps the strip-local labels. Returns the root
// lookups made.
func (b *BandLabeler) Resolve(root func(uint32) uint32) (finds int64) {
	rows := b.Rows()
	if root != nil {
		edges := [2]int{0, rows - 1} // one entry when the first row is the last
		for _, i := range edges[:min(rows, 2)] {
			for k := b.rowOff[i] / 2; k < b.rowOff[i+1]/2; k++ {
				r := b.find(k)
				b.label[r] = root(b.label[r])
				finds++
			}
		}
	}
	// A run's parent never follows it, so one forward sweep points every
	// run straight at its root and copies the root's label.
	for k, p := range b.parent {
		if p != int32(k) {
			r := b.parent[p]
			b.parent[k] = r
			b.label[k] = b.label[r]
		}
	}
	return finds
}

// Rows returns the row count of the last LabelRows strip.
func (b *BandLabeler) Rows() int { return len(b.rowOff) - 1 }

// Row returns strip row i of the run table: its flat (start, end) column
// pairs, the labels of those runs (final after Resolve), and the
// band-local seed of the row's column 0. A run is its component's seed run
// exactly when its final label is seed + its start column.
func (b *BandLabeler) Row(i int) (runs []int32, labels []uint32, seed uint32) {
	lo, hi := b.rowOff[i], b.rowOff[i+1]
	return b.runs[lo:hi], b.label[lo/2 : hi/2], b.base + uint32(i*b.cols)
}

// Paint writes every run of the last LabelRows strip into lab, the strip's
// rows*cols label slice, once, with its final label, zeroing background
// gaps in the same sweep (lab need not be pre-zeroed). Call it after
// Resolve.
func (b *BandLabeler) Paint(lab []uint32) {
	for i := 0; i < b.Rows(); i++ {
		if b.stop != nil && b.stop.Load() {
			return
		}
		b.PaintRow(lab[i*b.cols:(i+1)*b.cols], i)
	}
}

// PaintRow paints strip row i into row (cols labels): every run with its
// label, final after Resolve, a span write per run instead of a store per
// pixel, and the background gaps zeroed.
func (b *BandLabeler) PaintRow(row []uint32, i int) {
	col := int32(0)
	for k := b.rowOff[i] / 2; k < b.rowOff[i+1]/2; k++ {
		s, e := b.runs[2*k], b.runs[2*k+1]
		zero32(row[col:s])
		Fill32(row[s:e], b.label[k])
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
