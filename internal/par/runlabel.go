package par

import (
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// runLabelInto is the strip engine: packed rows scanned word-at-a-time
// into maximal runs — foreground runs over the bit plane in Binary mode,
// equal-grey-level runs over the byte plane in Grey mode — a strip-local
// union-find over runs with unite-by-minimum, and span-write painting
// (Phase 1); the seam between each pair of adjacent strips, extracted
// from the two facing pixel rows and united into one sparse forest that
// holds only the labels reaching a seam (Phase 2); and a strip-local
// relabel that looks up the forest once per run of a strip's first and
// last rows and repaints only the runs whose root moved (Phase 3).
//
// Exactness: a run's seed label is the global row-major index of its first
// pixel plus one, and the minimum-index pixel of any component fragment
// starts a run (its left neighbor is background — or, in grey mode, a
// different grey level — or would precede it in the same run), so
// unite-by-minimum roots every fragment at exactly the label the row-major
// BFS assigns. The result is therefore pixel-for-pixel identical to
// seq.LabelBFS, not merely equivalent up to renaming.
func (e *Engine) runLabelInto(im *image.Image, conn image.Connectivity, mode seq.Mode,
	out *image.Labels, clear bool) int {
	n := im.N
	W := e.stripCount(n)
	grey := mode == seq.Grey
	if grey {
		e.bytep.Reset(n)
	} else {
		e.bp.Reset(n)
	}

	if W == 1 {
		// Single strip: no borders to merge, and no parallelDo closure
		// to allocate — the whole call is allocation-free at steady state
		// (the phase marks are nil-safe no-ops with metrics disabled).
		t0 := e.obs.StartPhase()
		var comps int
		if grey {
			comps = e.greyLabelStrip(im, 0, n, 0, conn, clear, out.Lab)
		} else {
			e.bp.SetRows(im, 0, n)
			comps = e.runners[0].LabelStrip(&e.bp, 0, n, conn, clear, out.Lab)
		}
		e.obs.EndPhase("strip_label", "", t0)
		e.obs.Add(obs.CtrStripComponents, int64(comps))
		e.obs.Add(runCounter(mode), int64(len(e.runners[0].Runs())/2))
		return comps
	}

	// Phase 1 — each worker packs its strip's rows into the shared packed
	// plane (bit plane for binary, byte plane for grey) and run-labels
	// them: extraction, vertical unites and the paint pass all happen
	// strip-locally with global seed labels.
	e.phase("strip_label", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("strip_label", w, 1)
			r0, r1 := stripBounds(w, W, n)
			if grey {
				e.comps[w] = e.greyLabelStrip(im, r0, r1, w, conn, clear,
					out.Lab[r0*n:r1*n])
				return
			}
			e.bp.SetRows(im, r0, r1)
			e.comps[w] = e.runners[w].LabelStrip(&e.bp, r0, r1-r0, conn, clear,
				out.Lab[r0*n:r1*n])
		})
	})
	if e.interrupted() {
		return 0
	}

	// Phase 2 — the seams, walked in order on one goroutine under the
	// worker guard so an injected panic still comes back typed.
	e.phase("border_merge", func() {
		e.guard(0, func(int) { e.borderMerge(im, out, conn, mode, W) })
	})
	if e.interrupted() {
		return 0
	}

	// Phase 3 — each worker retargets the fragments its boundary rows
	// reach and repaints their runs; the forest is only read from here on.
	e.phase("relabel", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("relabel", w, 1)
			r0, r1 := stripBounds(w, W, n)
			e.finds[w], e.relab[w] = e.runners[w].Relabel(out.Lab[r0*n:r1*n], n, e.forest.Root)
		})
	})
	if e.interrupted() {
		return 0
	}

	total := -e.links
	for w := 0; w < W; w++ {
		total += e.comps[w]
	}
	if e.obs != nil {
		var comps, runs, finds, relab int64
		for w := 0; w < W; w++ {
			comps += int64(e.comps[w])
			runs += int64(len(e.runners[w].Runs()) / 2)
			finds += e.finds[w]
			relab += e.relab[w]
		}
		e.obs.Add(obs.CtrStripComponents, comps)
		e.obs.Add(runCounter(mode), runs)
		e.obs.Add(obs.CtrBorderLinks, int64(e.links))
		e.obs.Add(obs.CtrBorderPairs, e.pairs)
		e.obs.Add(obs.CtrBorderEdges, e.edges)
		e.obs.Add(obs.CtrUFFinds, finds)
		e.obs.Add(obs.CtrRelabeledPixels, relab)
	}
	return total
}

// greyLabelStrip packs rows [r0, r1) into the shared byte plane and grey-
// run-labels them with worker w's RunLabeler. Strips whose grey levels
// exceed a byte (SetRows reports the truncation) extract their runs from
// the raw uint32 pixels instead — same representation, full-width
// compares — so the fast path never trades correctness for speed.
func (e *Engine) greyLabelStrip(im *image.Image, r0, r1, w int, conn image.Connectivity,
	clear bool, lab []uint32) int {
	bp := &e.bytep
	if e.bytep.SetRows(im, r0, r1) {
		bp = nil
	}
	return e.runners[w].LabelGreyStrip(bp, im, r0, r1-r0, conn, clear, lab)
}

// runCounter returns the obs counter that tallies extracted runs for the
// mode: binary foreground runs and grey equal-level runs are reported
// separately so a metrics reader can tell which extractor ran.
func runCounter(mode seq.Mode) obs.Counter {
	if mode == seq.Grey {
		return obs.CtrGreyRuns
	}
	return obs.CtrRuns
}
