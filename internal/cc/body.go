package cc

import (
	"parimg/internal/bdm"
	"parimg/internal/graph"
	"parimg/internal/image"
	"parimg/internal/seq"
	"parimg/internal/sortutil"
)

// hook is the tile-hook data structure of Figure 5: one entry per tile
// component that touches the tile border.
type hook struct {
	orig uint32 // label from the tile initializer; interior pixels keep it
	cur  uint32 // current consistent label, updated each merge iteration
	off  int32  // tile offset of one pixel of the component
}

// procLocal is the per-processor private state (hooks, scratch buffers).
type procLocal struct {
	hooks   []hook
	queue   []int32
	visited seq.Visited

	// Manager/shadow scratch: positional colors and labels for the two
	// border sides, and the label-sorted pair views.
	sidePix [2][]uint32
	sideLab [2][]uint32
	pairs   [2][]sortutil.Pair
	skeys   []uint32 // sorted keys fetched from the shadow
	svals   []uint32 // sorted positions fetched from the shadow
	g       *graph.Graph
	vlab    []uint32
	changes []sortutil.Pair
}

// sharedState carries the spread arrays and immutable parameters shared by
// the SPMD body across all processors.
type sharedState struct {
	m      *bdm.Machine
	lay    image.Layout
	opt    Options
	phases []Phase

	tilePix *bdm.Spread[uint32]
	tileLab *bdm.Spread[uint32]

	// Tile edge copies: colors are static; labels are refreshed at the
	// start of every merge iteration.
	pixN, pixS *bdm.Spread[uint32] // length r rows
	pixE, pixW *bdm.Spread[uint32] // length q columns
	labN, labS *bdm.Spread[uint32]
	labE, labW *bdm.Spread[uint32]

	// Shadow manager publication area (sorted second border side).
	shCnt     *bdm.Spread[uint32]
	shSortLab *bdm.Spread[uint32]
	shSortPos *bdm.Spread[uint32]
	shPixPos  *bdm.Spread[uint32]

	// Change arrays: the manager publishes; every group member ends the
	// iteration with its own copy of the first chN pairs.
	chN *bdm.Spread[uint32]
	chA *bdm.Spread[uint32] // alphas (sorted ascending, unique)
	chB *bdm.Spread[uint32] // betas

	locals []procLocal

	// stages is the per-stage time breakdown, recorded by processor 0
	// (the barriers equalize the clocks, so its marks are machine-wide).
	stages Breakdown
}

func newSharedState(m *bdm.Machine, lay image.Layout) *sharedState {
	p := m.P()
	q, r := lay.Q, lay.R
	n := lay.N
	maxSide := n // a border side spans at most v*q = w*r = n pixels
	maxCh := 2*n + 1

	st := &sharedState{
		m:      m,
		lay:    lay,
		phases: Phases(lay.V, lay.W),

		tilePix: bdm.NewSpread[uint32](m, q*r),
		tileLab: bdm.NewSpread[uint32](m, q*r),

		pixN: bdm.NewSpread[uint32](m, r),
		pixS: bdm.NewSpread[uint32](m, r),
		pixE: bdm.NewSpread[uint32](m, q),
		pixW: bdm.NewSpread[uint32](m, q),
		labN: bdm.NewSpread[uint32](m, r),
		labS: bdm.NewSpread[uint32](m, r),
		labE: bdm.NewSpread[uint32](m, q),
		labW: bdm.NewSpread[uint32](m, q),

		shCnt:     bdm.NewSpread[uint32](m, 1),
		shSortLab: bdm.NewSpread[uint32](m, maxSide),
		shSortPos: bdm.NewSpread[uint32](m, maxSide),
		shPixPos:  bdm.NewSpread[uint32](m, maxSide),

		chN: bdm.NewSpread[uint32](m, 1),
		chA: bdm.NewSpread[uint32](m, maxCh),
		chB: bdm.NewSpread[uint32](m, maxCh),

		locals: make([]procLocal, p),
	}
	return st
}

// prepare loads a run's inputs into an allocated (possibly reused) shared
// state: the image is scattered into the tile spreads and the per-run
// options and stage marks are reset. Per-processor scratch keeps its grown
// capacity across runs.
func (st *sharedState) prepare(im *image.Image, opt Options) {
	st.opt = opt
	st.stages = Breakdown{}
	for rank := 0; rank < st.m.P(); rank++ {
		st.lay.Scatter(im, rank, st.tilePix.Row(rank))
	}
}

// procMain is the SPMD program: Sections 5.1-5.4 (and 6, via Options.Mode).
func (st *sharedState) procMain(pr *bdm.Proc) {
	rank := pr.Rank()
	loc := &st.locals[rank]
	q, r := st.lay.Q, st.lay.R

	// --- Initialization (Section 5.1): local sequential connected
	// components by row-major BFS with globally unique initial labels.
	pix := st.tilePix.Local(pr)
	lab := st.tileLab.Local(pr)
	for i := range lab {
		lab[i] = 0
	}
	_, queue := seq.TileLabeler(pix, q, r, st.opt.Conn, st.opt.Mode,
		func(i, j int) uint32 { return st.lay.InitialLabel(rank, i, j) },
		lab, loc.queue)
	loc.queue = queue
	pr.Work(opsPerPixelBFS * q * r)

	// Static color edges, copied once.
	copy(st.pixN.Local(pr), pix[:r])
	copy(st.pixS.Local(pr), pix[(q-1)*r:])
	pe, pw := st.pixE.Local(pr), st.pixW.Local(pr)
	for i := 0; i < q; i++ {
		pw[i] = pix[i*r]
		pe[i] = pix[i*r+r-1]
	}
	pr.Work(opsPerBorderPixel * 2 * (q + r))

	// Tile hooks (Procedure 2), unless the full-relabel ablation is on
	// (it relabels whole tiles every iteration and needs no hooks).
	if !st.opt.FullRelabel {
		st.buildHooks(pr, loc, pix, lab)
	}
	pr.Barrier()
	mark := pr.Elapsed()
	if rank == 0 {
		st.stages.Init = mark
		st.stages.Merge = make([]float64, 0, len(st.phases))
	}

	// --- log p merge iterations (Sections 5.2-5.4).
	for _, ph := range st.phases {
		st.runPhase(pr, loc, ph)
		if rank == 0 {
			now := pr.Elapsed()
			st.stages.Merge = append(st.stages.Merge, now-mark)
			mark = now
		} else {
			mark = pr.Elapsed()
		}
	}

	// --- Final total consistency update (end of Section 5.3): flood
	// each tile component whose hook label changed.
	if !st.opt.FullRelabel {
		loc.visited.Reset(q * r)
		flooded := 0
		for i := range loc.hooks {
			h := &loc.hooks[i]
			if h.cur == h.orig {
				continue
			}
			loc.queue = seq.FloodRelabel(pix, lab, q, r, st.opt.Conn, st.opt.Mode,
				h.off, h.cur, &loc.visited, loc.queue)
			flooded += len(loc.queue)
		}
		pr.Work(opsPerPixelFlood*flooded + len(loc.hooks))
	}
	pr.Barrier()
	if rank == 0 {
		st.stages.Final = pr.Elapsed() - mark
	}
}

// forEachBorderOffset enumerates each tile-border pixel offset exactly once
// for a q x r tile, in row-major order of the border scan.
func forEachBorderOffset(q, r int, fn func(o int)) {
	for j := 0; j < r; j++ {
		fn(j)
	}
	for i := 1; i < q-1; i++ {
		fn(i * r)
		if r > 1 {
			fn(i*r + r - 1)
		}
	}
	if q > 1 {
		for j := 0; j < r; j++ {
			fn((q-1)*r + j)
		}
	}
}

// buildHooks creates the sorted array of tile hooks: one per component with
// a border pixel, holding that component's label and the offset of one of
// its pixels (Procedure 2).
func (st *sharedState) buildHooks(pr *bdm.Proc, loc *procLocal, pix, lab []uint32) {
	q, r := st.lay.Q, st.lay.R
	pairs := loc.pairs[0][:0]
	count := 0
	forEachBorderOffset(q, r, func(o int) {
		count++
		if pix[o] != 0 {
			pairs = append(pairs, sortutil.Pair{Key: lab[o], Value: uint32(o)})
		}
	})
	m := len(pairs)
	sortutil.SortPairs(pairs)
	pairs = sortutil.UniquePairs(pairs)
	loc.hooks = loc.hooks[:0]
	for _, pa := range pairs {
		loc.hooks = append(loc.hooks, hook{orig: pa.Key, cur: pa.Key, off: int32(pa.Value)})
	}
	loc.pairs[0] = pairs[:0]
	pr.Work(opsPerBorderPixel*count + opsPerSortItem*m + len(pairs))
}

// refreshLabelEdges copies the tile's current border labels into the edge
// spreads so managers of this iteration can prefetch them.
func (st *sharedState) refreshLabelEdges(pr *bdm.Proc, lab []uint32) {
	q, r := st.lay.Q, st.lay.R
	copy(st.labN.Local(pr), lab[:r])
	copy(st.labS.Local(pr), lab[(q-1)*r:])
	le, lw := st.labE.Local(pr), st.labW.Local(pr)
	for i := 0; i < q; i++ {
		lw[i] = lab[i*r]
		le[i] = lab[i*r+r-1]
	}
	pr.Work(2 * (q + r))
}

// runPhase executes one merge iteration. Every processor passes the same
// fixed sequence of barriers (B0..B3 plus the end-of-phase barrier),
// whatever its role, so the machine-wide barriers always match up.
func (st *sharedState) runPhase(pr *bdm.Proc, loc *procLocal, ph Phase) {
	rank := pr.Rank()
	grp := GroupOf(st.lay, ph, rank)
	lab := st.tileLab.Local(pr)

	// B0: publish current border labels.
	st.refreshLabelEdges(pr, lab)
	pr.Barrier()

	// Load + sort border sides.
	isMgr := rank == grp.Manager
	isShadow := !st.opt.NoShadow && rank == grp.Shadow
	if isMgr {
		st.loadSide(pr, loc, grp, 0)
		st.sortSide(pr, loc, 0, grp.Side)
		if st.opt.NoShadow {
			st.loadSide(pr, loc, grp, 1)
			st.sortSide(pr, loc, 1, grp.Side)
		}
	}
	if isShadow {
		st.loadSide(pr, loc, grp, 1)
		st.sortSide(pr, loc, 1, grp.Side)
		// Publish count, sorted (label, position) pairs, and the
		// positional colors for the manager to prefetch.
		st.shCnt.Local(pr)[0] = uint32(len(loc.pairs[1]))
		sl, sp := st.shSortLab.Local(pr), st.shSortPos.Local(pr)
		for i, pa := range loc.pairs[1] {
			sl[i] = pa.Key
			sp[i] = pa.Value
		}
		copy(st.shPixPos.Local(pr)[:grp.Side], loc.sidePix[1])
		pr.Work(2*len(loc.pairs[1]) + grp.Side)
	}
	pr.Barrier() // B1

	// Manager solves the merge and publishes the change array.
	if isMgr {
		if !st.opt.NoShadow {
			st.fetchShadowSide(pr, loc, grp)
		}
		changes := st.solveMerge(pr, loc, grp)
		st.chN.Local(pr)[0] = uint32(len(changes))
		a, b := st.chA.Local(pr), st.chB.Local(pr)
		for i, c := range changes {
			a[i] = c.Key
			b[i] = c.Value
		}
		pr.Work(2 * len(changes))
	}
	pr.Barrier() // B2

	// Distribute the change array to the group (Section 5.4).
	prevLabel := pr.SetCommLabel("change_dist")
	c := int(bdm.GetScalar(pr, st.chN, grp.Manager, 0))
	pr.Sync()
	switch st.opt.ChangeDist {
	case DistDirect:
		if c > 0 && rank != grp.Manager {
			bdm.Get(pr, st.chA.Local(pr)[:c], st.chA, grp.Manager, 0)
			bdm.Get(pr, st.chB.Local(pr)[:c], st.chB, grp.Manager, 0)
			pr.Sync()
		}
		pr.Barrier() // B3 (alignment only)
	case DistTranspose:
		gidx := grp.GroupIndex(st.lay, rank)
		bsz := (c + grp.F - 1) / grp.F
		if c > 0 && rank != grp.Manager {
			lo, hi := blockRange(gidx, bsz, c)
			if hi > lo {
				bdm.Get(pr, st.chA.Local(pr)[lo:hi], st.chA, grp.Manager, lo)
				bdm.Get(pr, st.chB.Local(pr)[lo:hi], st.chB, grp.Manager, lo)
				pr.Sync()
			}
		}
		pr.Barrier() // B3: everyone's own block is published
		if c > 0 && rank != grp.Manager {
			for loop := 1; loop < grp.F; loop++ {
				sidx := (gidx + loop) % grp.F
				src := grp.MemberAt(st.lay, sidx)
				lo, hi := blockRange(sidx, bsz, c)
				if hi > lo {
					bdm.Get(pr, st.chA.Local(pr)[lo:hi], st.chA, src, lo)
					bdm.Get(pr, st.chB.Local(pr)[lo:hi], st.chB, src, lo)
				}
			}
			pr.Sync()
		}
	}
	pr.SetCommLabel(prevLabel)

	// Apply the changes: the paper's limited updating touches only the
	// tile-border pixels and the hooks; the ablation relabels the whole
	// tile.
	if c > 0 {
		alphas := st.chA.Local(pr)[:c]
		betas := st.chB.Local(pr)[:c]
		cost := searchOps(c)
		if st.opt.FullRelabel {
			for i, l := range lab {
				if l == 0 {
					continue
				}
				if nb, ok := searchChange(alphas, betas, l); ok {
					lab[i] = nb
				}
			}
			pr.Work(len(lab) * cost)
		} else {
			q, r := st.lay.Q, st.lay.R
			touched := 0
			forEachBorderOffset(q, r, func(o int) {
				touched++
				l := lab[o]
				if l == 0 {
					return
				}
				if nb, ok := searchChange(alphas, betas, l); ok {
					lab[o] = nb
				}
			})
			for i := range loc.hooks {
				if nb, ok := searchChange(alphas, betas, loc.hooks[i].cur); ok {
					loc.hooks[i].cur = nb
				}
			}
			pr.Work((touched + len(loc.hooks)) * cost)
		}
	}
	pr.Barrier() // end of iteration
}

// blockRange returns block idx's half-open range of a c-element list split
// into blocks of bsz.
func blockRange(idx, bsz, c int) (lo, hi int) {
	lo = idx * bsz
	hi = lo + bsz
	if lo > c {
		lo = c
	}
	if hi > c {
		hi = c
	}
	return lo, hi
}

// searchChange binary-searches the sorted unique alphas for key and returns
// the corresponding beta.
func searchChange(alphas, betas []uint32, key uint32) (uint32, bool) {
	lo, hi := 0, len(alphas)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if alphas[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(alphas) && alphas[lo] == key {
		return betas[lo], true
	}
	return 0, false
}
