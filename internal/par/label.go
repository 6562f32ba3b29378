package par

import (
	"context"
	"fmt"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// checkLabelInput validates the (image, connectivity, mode) triple shared by
// every labeling entry point. Image.Check enforces the structural invariants
// including the n <= MaxSide label-space bound: seed labels are the global
// row-major index + 1 in uint32, so a larger side would silently wrap
// (65536*65536 == 2^32) and collide labels across strips.
func checkLabelInput(op string, im *image.Image, conn image.Connectivity, mode seq.Mode) error {
	if err := im.Check(); err != nil {
		return fmt.Errorf("par: %w", err)
	}
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
	if _, err := e.labelInto(ctx, "par.Label", im, conn, mode, out, false); err != nil {
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
	return e.labelInto(ctx, "par.LabelInto", im, conn, mode, out, true)
}

// labelInto owns the call's cancellation lifecycle around the run engine:
// begin/end bracket the phases, and a run error (worker panic, context
// expiry, injected fault) comes back as a typed RunError. Every call
// starts from fresh per-call state (run tables, an emptied seam forest),
// so an interrupted call leaves the engine immediately reusable.
func (e *Engine) labelInto(ctx context.Context, op string, im *image.Image,
	conn image.Connectivity, mode seq.Mode, out *image.Labels, clear bool) (int, error) {
	if err := e.begin(op, ctx); err != nil {
		return 0, err
	}
	defer e.end()
	flag := e.stopFlag()
	for i := range e.runners {
		e.runners[i].Stop = flag
	}
	comps := e.runLabelInto(im, conn, mode, out, clear)
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
// between bands. Strip labels must already be painted into out. Only
// labels that reach a seam enter the forest, and the whole seam is a
// small fraction of a call, so it gains nothing from parallelism. Leaves
// the link, pair and edge tallies in e.links, e.pairs and e.edges.
func (e *Engine) borderMerge(im *image.Image, out *image.Labels,
	conn image.Connectivity, mode seq.Mode, W int) {
	n := im.N
	stop := e.stopFlag()
	e.forest.Reset()
	e.links, e.pairs, e.edges = 0, 0, 0
	for w := 1; w < W; w++ {
		e.checkFault("border_merge", w, 1)
		if stop != nil && stop.Load() {
			return
		}
		r, _ := stripBounds(w, W, n)
		top, bot := (r-1)*n, r*n
		var pairs int64
		e.seam, pairs = AppendBoundaryEdges(e.seam[:0], im.Pix[top:bot], im.Pix[bot:bot+n],
			out.Lab[top:bot], out.Lab[bot:bot+n], conn, mode, stop)
		e.pairs += pairs
		e.edges += int64(len(e.seam) / 2)
		e.links += ResolveBoundary(e.seam, &e.forest, stop)
	}
}
