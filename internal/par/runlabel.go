package par

import (
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// labelBand is the strip engine over one rows x cols band: each worker
// builds its strip's run table with its own seq.BandLabeler — packed rows
// scanned word-at-a-time into maximal runs (foreground runs over the bit
// plane in Binary mode, equal-grey-level runs over the byte plane in Grey
// mode) and a strip-local union-find over runs with unite-by-minimum — and
// paints the strip's first and last rows into the engine's edge rows
// (Phase 1); the seam between each pair of adjacent strips, extracted from
// the two facing pixel rows and their edge rows and united into one sparse
// forest that holds only the labels reaching a seam (Phase 2); and one
// resolve per strip, which looks up the forest once per run of the strip's
// first and last rows and gives every run its final label (Phase 3, still
// named "relabel"). The run tables are then the band's labeling; a non-nil
// lab also gets every run painted once, in Phase 3. A one-strip band has
// no seam, so its labeler resolves (and paints) inside Phase 1.
//
// Exactness: a run's seed label is the band row-major index of its first
// pixel plus one, and the minimum-index pixel of any component fragment
// starts a run (its left neighbor is background — or, in grey mode, a
// different grey level — or would precede it in the same run), so
// unite-by-minimum roots every fragment at exactly the label the row-major
// BFS assigns. The result is therefore pixel-for-pixel identical to
// seq.LabelBFS over the band, not merely equivalent up to renaming.
func (e *Engine) labelBand(pix []uint32, rows, cols int, conn image.Connectivity,
	mode seq.Mode, lab []uint32) int {
	W := e.stripCount(rows)
	e.strips = W
	if W == 1 {
		// Single strip: no borders to merge, and no parallelDo closure
		// to allocate — the whole call is allocation-free at steady state
		// (the phase marks are nil-safe no-ops with metrics disabled).
		t0 := e.obs.StartPhase()
		b := &e.bands[0]
		comps := b.LabelRows(pix, 0, rows, cols, conn, mode)
		b.Resolve(nil)
		if lab != nil {
			b.Paint(lab)
		}
		e.obs.EndPhase("strip_label", "", t0)
		e.obs.Add(obs.CtrStripComponents, int64(comps))
		e.obs.Add(runCounter(mode), int64(len(b.Runs())/2))
		return comps
	}

	// Phase 1 — each worker packs and run-labels its own strip with
	// band-unique seed labels, and paints the strip's first and last rows
	// into its two edge rows, the ones the seams read.
	if need := 2 * W * cols; cap(e.edge) < need {
		e.edge = make([]uint32, need)
	}
	e.phase("strip_label", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("strip_label", w, 1)
			r0, r1 := stripBounds(w, W, rows)
			e.comps[w] = e.bands[w].LabelRows(pix[r0*cols:r1*cols], r0, r1-r0, cols, conn, mode)
			e.bands[w].PaintEdges(e.edgeRow(2*w, cols), e.edgeRow(2*w+1, cols))
		})
	})
	if e.interrupted() {
		return 0
	}

	// Phase 2 — the seams, walked in order on one goroutine under the
	// worker guard so an injected panic still comes back typed.
	e.phase("border_merge", func() {
		e.guard(0, func(int) { e.borderMerge(pix, rows, cols, conn, mode, W) })
	})
	if e.interrupted() {
		return 0
	}

	// Phase 3 — each worker maps the fragments its boundary rows reach
	// through the forest, which gives every run of its strip its final
	// label, and paints the strip when the caller wants pixels; the forest
	// is only read from here on.
	e.phase("relabel", func() {
		e.parallelDo(W, func(w int) {
			e.checkFault("relabel", w, 1)
			e.finds[w] = e.bands[w].Resolve(e.forest.Root)
			if lab != nil {
				r0, r1 := stripBounds(w, W, rows)
				e.bands[w].Paint(lab[r0*cols : r1*cols])
			}
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
		var comps, runs, finds int64
		for w := 0; w < W; w++ {
			comps += int64(e.comps[w])
			runs += int64(len(e.bands[w].Runs()) / 2)
			finds += e.finds[w]
		}
		e.obs.Add(obs.CtrStripComponents, comps)
		e.obs.Add(runCounter(mode), runs)
		e.obs.Add(obs.CtrBorderLinks, int64(e.links))
		e.obs.Add(obs.CtrBorderPairs, e.pairs)
		e.obs.Add(obs.CtrBorderEdges, e.edges)
		e.obs.Add(obs.CtrUFFinds, finds)
	}
	return total
}

// edgeRow returns edge row i of the current band: row 2w holds strip w's
// first row and row 2w+1 its last, with strip-local labels.
func (e *Engine) edgeRow(i, cols int) []uint32 { return e.edge[i*cols : (i+1)*cols] }

// runCounter returns the obs counter that tallies extracted runs for the
// mode: binary foreground runs and grey equal-level runs are reported
// separately so a metrics reader can tell which extractor ran.
func runCounter(mode seq.Mode) obs.Counter {
	if mode == seq.Grey {
		return obs.CtrGreyRuns
	}
	return obs.CtrRuns
}
