package par

import (
	"context"
	"fmt"
	"math"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// checkLabelInput validates the (image, connectivity, mode) triple shared by
// the resident labeling entry points. Image.Check enforces the structural
// invariants including the n <= MaxSide label-space bound: seed labels are
// the global row-major index + 1 in uint32, so a larger side would silently
// wrap (65536*65536 == 2^32) and collide labels across strips.
func checkLabelInput(op string, im *image.Image, conn image.Connectivity, mode seq.Mode) error {
	if err := im.Check(); err != nil {
		return fmt.Errorf("par: %w", err)
	}
	return checkConnMode(op, conn, mode)
}

// checkConnMode rejects an unknown connectivity or mode.
func checkConnMode(op string, conn image.Connectivity, mode seq.Mode) error {
	if !conn.Valid() {
		return errs.Bad(op, "invalid connectivity %d (want 4 or 8)", int(conn))
	}
	if mode != seq.Binary && mode != seq.Grey {
		return errs.Bad(op, "invalid mode %d", int(mode))
	}
	return nil
}

// LabelContext labels im's connected components with the engine's workers
// and returns a fresh labeling, pixel-for-pixel identical to seq.LabelBFS.
// A malformed image (nil, side outside (0, MaxSide], wrong buffer length),
// an unknown connectivity or an unknown mode returns an error from the errs
// taxonomy instead of panicking or silently wrapping 32-bit seed labels.
// When ctx is canceled or its deadline expires, the workers stop at their
// next checkpoint (between phases, inside the seam resolution, and every
// few rows inside the strip loops) and the call returns an error wrapping
// errs.ErrCanceled or errs.ErrDeadline; no labeling is returned. A nil ctx
// disables cancellation at no cost.
func (e *Engine) LabelContext(ctx context.Context, im *image.Image,
	conn image.Connectivity, mode seq.Mode) (*image.Labels, error) {
	if err := checkLabelInput("par.Label", im, conn, mode); err != nil {
		return nil, err
	}
	out := image.NewLabels(im.N)
	if _, err := e.labelInto(ctx, "par.Label", im.Pix, im.N, im.N, conn, mode, out.Lab); err != nil {
		return nil, err
	}
	return out, nil
}

// LabelIntoContext labels im into out (cleared first) and returns the
// number of components; it additionally checks that out is structurally
// valid and matches im's side. See LabelContext for the error contract. On
// a run error the contents of out are undefined (partially labeled) —
// callers must discard them.
func (e *Engine) LabelIntoContext(ctx context.Context, im *image.Image,
	conn image.Connectivity, mode seq.Mode, out *image.Labels) (int, error) {
	if err := checkLabelInput("par.LabelInto", im, conn, mode); err != nil {
		return 0, err
	}
	if err := out.Check(); err != nil {
		return 0, fmt.Errorf("par: %w", err)
	}
	if out.N != im.N {
		return 0, errs.Geometry("par.LabelInto", im.N, 0,
			"labeling side %d does not match image side %d", out.N, im.N)
	}
	return e.labelInto(ctx, "par.LabelInto", im.Pix, im.N, im.N, conn, mode, out.Lab)
}

// LabelBand labels the rows x cols band in pix (row-major) and returns the
// number of components within the band. Labels are band-local seeds: each
// component carries the band row-major index of its first pixel plus one,
// exactly what seq.BandLabeler.Label paints. The labeling is the run
// tables Strips returns; a non-nil lab also gets it painted (lab need not
// be pre-zeroed), and a nil lab paints nothing. Band labels must fit
// uint32, so rows*cols may not exceed math.MaxUint32. A non-positive
// dimension, or a pixel buffer or non-nil label buffer that does not hold
// rows*cols elements, returns an error wrapping errs.ErrGeometry, a band
// past the uint32 seed space one wrapping errs.ErrLabelOverflow, and an
// unknown connectivity or mode one wrapping errs.ErrBadInput — all before
// any labeling work. Cancellation and run errors follow LabelContext; on
// a run error lab and the run tables are undefined.
func (e *Engine) LabelBand(ctx context.Context, pix []uint32, rows, cols int,
	conn image.Connectivity, mode seq.Mode, lab []uint32) (int, error) {
	const op = "par.LabelBand"
	if rows < 1 || cols < 1 {
		return 0, errs.Geometry(op, 0, 0, "band of %d x %d pixels", rows, cols)
	}
	if int64(rows)*int64(cols) > math.MaxUint32 {
		return 0, &errs.InputError{Op: op, Kind: errs.ErrLabelOverflow,
			Detail: fmt.Sprintf("band of %d x %d pixels exceeds the uint32 seed space", rows, cols)}
	}
	if len(pix) != rows*cols || (lab != nil && len(lab) != rows*cols) {
		return 0, errs.Geometry(op, 0, 0, "band of %d x %d pixels given %d pixels and %d labels",
			rows, cols, len(pix), len(lab))
	}
	if err := checkConnMode(op, conn, mode); err != nil {
		return 0, err
	}
	return e.labelInto(ctx, op, pix, rows, cols, conn, mode, lab)
}

// Strips returns the run tables of the last LabelBand call, one labeler
// per strip, top to bottom: strip w's runs carry their final band labels
// (seq.BandLabeler.Row), so walking the strips in order walks the band's
// runs in row-major order. Valid until the next call on the engine.
func (e *Engine) Strips() []seq.BandLabeler { return e.bands[:e.strips] }

// labelInto owns the call's cancellation lifecycle around the strip
// engine: begin/end bracket the phases, and a run error (worker panic,
// context expiry, injected fault) comes back as a typed RunError. Every
// call starts from fresh per-call state (run tables, an emptied seam
// forest), so an interrupted call leaves the engine immediately reusable.
func (e *Engine) labelInto(ctx context.Context, op string, pix []uint32, rows, cols int,
	conn image.Connectivity, mode seq.Mode, lab []uint32) (int, error) {
	if err := e.begin(op, ctx); err != nil {
		return 0, err
	}
	defer e.end()
	flag := e.stopFlag()
	for i := range e.bands {
		e.bands[i].SetStop(flag)
	}
	comps := e.labelBand(pix, rows, cols, conn, mode, lab)
	if err := e.runError(); err != nil {
		return 0, err
	}
	return comps, nil
}

// borderMerge is Phase 2 — resolving the strip boundaries so that labels
// from different strips that belong to one component share a root in the
// seam forest. It walks the W-1 boundaries in order on one goroutine: for
// boundary w (between strips w-1 and w) it extracts the union edges of the
// two facing pixel rows with AppendBoundaryEdges and unites them into the
// forest with ResolveBoundary — the same seam the streaming pipeline runs
// between bands. Each strip's first and last rows must already be painted
// into the edge rows with their strip-local labels
// (seq.BandLabeler.PaintEdges). Only labels that reach a seam enter the
// forest, and the whole seam is a small fraction of a call, so it gains
// nothing from parallelism. Leaves the link, pair and edge tallies in
// e.links, e.pairs and e.edges.
func (e *Engine) borderMerge(pix []uint32, rows, cols int,
	conn image.Connectivity, mode seq.Mode, W int) {
	stop := e.stopFlag()
	e.forest.Reset()
	e.links, e.pairs, e.edges = 0, 0, 0
	for w := 1; w < W; w++ {
		e.checkFault("border_merge", w, 1)
		if stop != nil && stop.Load() {
			return
		}
		r, _ := stripBounds(w, W, rows)
		top, bot := (r-1)*cols, r*cols
		var pairs int64
		e.seam, pairs = AppendBoundaryEdges(e.seam[:0], pix[top:bot], pix[bot:bot+cols],
			e.edgeRow(2*w-1, cols), e.edgeRow(2*w, cols), conn, mode, stop)
		e.pairs += pairs
		e.edges += int64(len(e.seam) / 2)
		e.links += ResolveBoundary(e.seam, &e.forest, stop)
	}
}
