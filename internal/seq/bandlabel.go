package seq

import (
	"sync/atomic"

	"parimg/internal/image"
)

// BandLabeler labels rectangular rows x cols band windows with the
// run-based engine — the unit of work of the out-of-core streaming pipeline
// (internal/stream), which decodes one horizontal band of a taller-than-
// resident image at a time. It owns the packed plane and RunLabeler scratch
// and reuses them across bands, so a steady-state band loop allocates
// nothing; like the strip labelers, the zero value is ready to use and an
// instance is not safe for concurrent use.
//
// Seed labels are band-local: the band-row-major index plus one, exactly
// what LabelStrip assigns with r0 = 0. The caller lifts them into the
// 64-bit global label space by adding the band's global base offset — the
// band-local seed of a pixel plus the global index of the band's first
// pixel is the pixel's global row-major index plus one, so the lifted
// labeling is the one a (hypothetical) 64-bit whole-image run labeler
// would produce.
type BandLabeler struct {
	rl    RunLabeler
	bp    image.Bitplane
	bytep image.Byteplane
}

// SetStop installs (or, with nil, removes) the cooperative cancellation
// flag the band labeler's row loops poll; see RunLabeler.Stop.
func (b *BandLabeler) SetStop(stop *atomic.Bool) { b.rl.Stop = stop }

// Label run-labels the rows x cols band in pix into lab (background gaps
// are cleared as part of the paint pass; lab need not be pre-zeroed) and
// returns the number of components found within the band. Labels are
// band-local seeds: band-row-major index + 1, so rows*cols must stay well
// inside uint32 — the streaming pipeline's band budget guarantees it.
// Binary mode packs the band into the bit plane and takes the word-at-a-
// time run scan; grey mode packs the byte plane, falling back to full-width
// extraction over pix when any grey level exceeds a byte.
func (b *BandLabeler) Label(pix []uint32, rows, cols int, conn image.Connectivity,
	mode Mode, lab []uint32) int {
	if mode == Grey {
		b.bytep.ResetRect(rows, cols)
		bp := &b.bytep
		if b.bytep.SetRowsPix(pix, 0, rows) {
			bp = nil
		}
		// The grey strip labeler reads pixels through an *image.Image only
		// as a flat row-major buffer with stride N; a band-shaped view is a
		// valid trusted-path argument even though it is not square.
		view := image.Image{N: cols, Pix: pix}
		return b.rl.LabelGreyStrip(bp, &view, 0, rows, conn, true, lab)
	}
	b.bp.ResetRect(rows, cols)
	b.bp.SetRowsPix(pix, 0, rows)
	return b.rl.LabelStrip(&b.bp, 0, rows, conn, true, lab)
}

// Runs exposes the band's flat (start, end) run table, valid until the next
// Label call — the census accumulation of the streaming pipeline walks runs
// instead of pixels.
func (b *BandLabeler) Runs() []int32 { return b.rl.Runs() }
