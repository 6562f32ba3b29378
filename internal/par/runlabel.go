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
// (Phase 1); the cross-strip border merge in the concurrent union-find
// (Phase 2); a final update that walks each strip's run table — one find
// and one span write per run (Phase 3); and the union-find cleanup (Phase
// 4). Grey runs carry their grey level, so the border merge unites two
// runs across a strip boundary exactly when a pair of their pixels
// connects under the mode.
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

	e.phase("border_merge", func() {
		e.borderMerge(out, conn, mode, W)
	})
	if e.interrupted() {
		return 0
	}

	// Phase 3 — final update over runs: a run is uniformly labeled, so one
	// find on its painted label and one span rewrite (only when the root
	// moved) relabel it. Background costs nothing — it has no runs.
	e.phase("relabel", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("relabel", w, 1)
			r0, _ := stripBounds(w, W, n)
			runs := e.runners[w].Runs()
			rowOff := e.runners[w].RowOffsets()
			var finds, relab int64
			for i := 0; i+1 < len(rowOff); i++ {
				if i&63 == 0 && e.cancelable && e.stop.Load() {
					return
				}
				rowBase := (r0 + i) * n
				for k := rowOff[i]; k < rowOff[i+1]; k += 2 {
					s, end := runs[k], runs[k+1]
					l := out.Lab[rowBase+int(s)]
					finds++
					if r := e.uf.find(l); r != l {
						seq.Fill32(out.Lab[rowBase+int(s):rowBase+int(end)], r)
						relab += int64(end - s)
					}
				}
			}
			e.finds[w] = finds
			e.relab[w] = relab
		})
	})

	if e.interrupted() {
		return 0
	}
	comps := e.finish(W)
	if e.obs != nil {
		var runs int64
		for w := 0; w < W; w++ {
			runs += int64(len(e.runners[w].Runs()) / 2)
		}
		e.obs.Add(runCounter(mode), runs)
	}
	return comps
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
