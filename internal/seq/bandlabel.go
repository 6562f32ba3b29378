package seq

import (
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler labels rectangular rows x cols windows with the run-based
// engine: one strip of a band (LabelRows), the unit of work each worker of
// the host-parallel engine runs, or a whole band (Label). It owns the
// packed plane and RunLabeler scratch and reuses them across calls, so a
// steady-state loop allocates nothing; the zero value is ready to use and
// an instance is not safe for concurrent use.
//
// Seed labels are band-local: the band-row-major index plus one. The
// caller lifts them into the 64-bit global label space by adding the
// band's global base offset — the band-local seed of a pixel plus the
// global index of the band's first pixel is the pixel's global row-major
// index plus one, so the lifted labeling is the one a (hypothetical)
// 64-bit whole-image run labeler would produce.
type BandLabeler struct {
	rl    RunLabeler
	bp    image.Bitplane
	bytep image.Byteplane
}

// SetStop installs (or, with nil, removes) the cooperative cancellation
// flag the row loops poll; see RunLabeler.Stop.
func (b *BandLabeler) SetStop(stop *atomic.Bool) { b.rl.Stop = stop }

// Label run-labels the rows x cols band in pix into lab (background gaps
// are cleared as part of the paint pass; lab need not be pre-zeroed) and
// returns the number of components found within the band. It is LabelRows
// for a whole band: r0 = 0, clearing on.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	return b.LabelRows(pix, 0, rows, cols, conn, mode, true, lab)
}

// LabelRows run-labels one strip of a band: pix and lab hold the strip's
// rows x cols pixels and labels, and r0 is the strip's first row within
// the band, so row i's seeds are (r0+i)*cols + column + 1. Labels are
// band-local seeds, so rows*cols of the whole band must stay within
// uint32. When clear is true, background gaps are zeroed as part of the
// paint pass; when false, lab must already be zero. Returns the number of
// components found within the strip. Binary mode packs the strip into
// the bit plane and takes the word-at-a-time run scan; grey mode packs
// the byte plane, falling back to full-width extraction over pix when any
// grey level exceeds a byte.
func (b *BandLabeler) LabelRows(pix []uint32, r0, rows, cols int, conn image.Connectivity,
	mode Mode, clear bool, lab []uint32) int {
	if mode == Grey {
		b.bytep.ResetRect(rows, cols)
		bp := &b.bytep
		if b.bytep.SetRowsPix(pix, 0, rows) {
			bp = nil
		}
		return b.rl.LabelGreyStrip(bp, pix, r0, rows, cols, conn, clear, lab)
	}
	b.bp.ResetRect(rows, cols)
	b.bp.SetRowsPix(pix, 0, rows)
	return b.rl.LabelStrip(&b.bp, r0, rows, conn, clear, lab)
}

// Relabel moves the last LabelRows strip's fragments onto the roots a
// cross-strip merge gave them; see RunLabeler.Relabel.
func (b *BandLabeler) Relabel(lab []uint32, cols int, root func(uint32) uint32) (finds, relab int64) {
	return b.rl.Relabel(lab, cols, root)
}

// Runs exposes the last labeled window's flat (start, end) run table,
// valid until the next call.
func (b *BandLabeler) Runs() []int32 { return b.rl.Runs() }
