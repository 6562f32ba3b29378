package par

import (
	"context"
	"fmt"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/obs"
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
// expiry, injected fault) comes back as a typed RunError after the scratch
// has been scrubbed back to its ready state, so the engine is immediately
// reusable.
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
		e.scrub()
		return 0, err
	}
	return comps, nil
}

// scrub restores the engine's scratch to its ready state after an
// interrupted run. The per-worker dirty lists cannot be trusted (a worker
// may have panicked after uniting but before publishing its list), so the
// union-find is wiped wholesale back to the all-zero ready state instead of
// entry-by-entry. O(n^2), but only ever paid on the error path.
func (e *Engine) scrub() {
	for i := range e.uf.parent {
		e.uf.parent[i] = 0
	}
}

// borderMerge is Phase 2 — resolving the strip boundaries so that labels
// from different strips that belong to one component share a root in the
// concurrent union-find. It runs in two passes: an extraction pass in which
// worker w reduces the boundary between strips w-1 and w to a deduplicated
// union-edge list in its private append-only slab, and a resolution pass in
// which every worker feeds its slab to the union-find through the shared
// ResolveBoundary loop, one unite per edge. Boundaries are independent, but
// a strip's labels can reach two boundaries, so the union-find must be (and
// is) safe for concurrent unites. Strip labels must already be painted into
// out; cross-border link counts land in e.links, raw adjacency counts in
// e.pairs.
func (e *Engine) borderMerge(out *image.Labels, conn image.Connectivity, mode seq.Mode, W int) {
	n := out.N
	e.uf.reset(n*n + 1)
	e.parallelDo(W, func(w int) {
		e.checkFault("border_merge", w, 1)
		e.links[w] = 0
		e.pairs[w] = 0
		e.dirty[w] = e.dirty[w][:0]
		if w > 0 {
			e.extractRunEdges(out, conn, mode, w, W, n)
		}
	})
	if e.cancelable && e.stop.Load() {
		return
	}
	e.parallelDo(W, func(w int) {
		e.checkFault("border_merge", w, 2)
		e.links[w] = ResolveBoundary(e.dirty[w], &e.uf, e.stopFlag())
	})
}

// extractRunEdges is the extraction pass: instead of scanning boundary
// pixels it intersects the last-row run list of strip w-1 with the
// first-row run list of strip w (both already sitting in the strips'
// RunLabelers) and emits exactly one union edge per adjacent run
// pair — a run's pixels all carry one label, so the pair's single edge is
// the full dedup. A sparse boundary therefore costs O(runs), not O(side).
// Adjacency under Conn8 widens each run's column interval by one; two runs
// connect when the widened intervals overlap and, in grey mode, their grey
// levels are equal (maximal grey runs can touch, so the sweep keeps a skip
// pointer and rescans forward per lower run, like seq's uniteRowsGrey —
// the binary two-pointer advance would drop Conn8 diagonals across
// touching pairs).
func (e *Engine) extractRunEdges(out *image.Labels,
	conn image.Connectivity, mode seq.Mode, w, W, n int) {
	c, _ := stripBounds(w, W, n)
	up, lo := &e.runners[w-1], &e.runners[w]
	upOff, loOff := up.RowOffsets(), lo.RowOffsets()
	aRuns, bRuns := up.Runs(), lo.Runs()
	aLo, aHi := int(upOff[len(upOff)-2]), int(upOff[len(upOff)-1])
	bLo, bHi := int(loOff[0]), int(loOff[1])
	top, bot := (c-1)*n, c*n
	var win int32
	if conn == image.Conn8 {
		win = 1
	}
	dirty := e.dirty[w][:0]
	var pairs int64
	if mode == seq.Grey {
		aVals, bVals := up.Values(), lo.Values()
		p := aLo
		for b := bLo; b < bHi; b += 2 {
			if b&1023 == 0 && e.cancelable && e.stop.Load() {
				break
			}
			b0, b1 := bRuns[b], bRuns[b+1]
			for p < aHi && aRuns[p+1]+win <= b0 {
				p += 2
			}
			lb := out.Lab[bot+int(b0)]
			for q := p; q < aHi && aRuns[q] < b1+win; q += 2 {
				if aVals[q/2] != bVals[b/2] {
					continue
				}
				pairs++
				dirty = append(dirty, out.Lab[top+int(aRuns[q])], lb)
			}
		}
	} else {
		p, q := aLo, bLo
		for p < aHi && q < bHi {
			if (p+q)&1023 == 0 && e.cancelable && e.stop.Load() {
				break
			}
			a0, a1 := aRuns[p], aRuns[p+1]
			b0, b1 := bRuns[q], bRuns[q+1]
			if a0 < b1+win && b0 < a1+win {
				pairs++
				dirty = append(dirty, out.Lab[top+int(a0)], out.Lab[bot+int(b0)])
			}
			if a1 <= b1 {
				p += 2
			} else {
				q += 2
			}
		}
	}
	e.pairs[w] = pairs
	e.dirty[w] = dirty
}

// finish is Phase 4 plus the component count: restore the union-find's
// all-zero ready state by clearing exactly the entries this run touched,
// then tally strip components minus cross-border merges. With a recorder
// installed it also aggregates the per-worker operation counts gathered by
// the earlier phases.
func (e *Engine) finish(W int) int {
	e.phase("cleanup", func() {
		e.parallelDo(W, func(w int) {
			e.uf.clear(e.dirty[w])
		})
	})
	total := 0
	for w := 0; w < W; w++ {
		total += e.comps[w] - e.links[w]
	}
	if e.obs != nil {
		var comps, links, pairs, edges, finds, relab int64
		for w := 0; w < W; w++ {
			comps += int64(e.comps[w])
			links += int64(e.links[w])
			pairs += e.pairs[w]
			edges += int64(len(e.dirty[w]) / 2)
			finds += e.finds[w]
			relab += e.relab[w]
		}
		e.obs.Add(obs.CtrStripComponents, comps)
		e.obs.Add(obs.CtrBorderLinks, links)
		e.obs.Add(obs.CtrBorderPairs, pairs)
		e.obs.Add(obs.CtrBorderEdges, edges)
		e.obs.Add(obs.CtrUFFinds, finds)
		e.obs.Add(obs.CtrRelabeledPixels, relab)
	}
	return total
}
