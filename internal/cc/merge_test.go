package cc

import (
	"testing"

	"parimg/internal/bdm"
	"parimg/internal/image"
	"parimg/internal/machine"
	"parimg/internal/seq"
	"parimg/internal/sortutil"
)

// TestSolveMergeTwoTiles drives the manager/shadow machinery directly on a
// two-processor machine and inspects the produced change array.
//
// Image (4x4, two 4x2 tiles):
//
//	1 1 | 1 0
//	0 0 | 0 0
//	1 0 | 0 1
//	0 0 | 1 0
//
// The top row is one component crossing the border: the left part gets
// label 1 (pixel (0,0)), the right part label 3 (pixel (0,2)); the merge
// must rename 3 -> 1. Under 8-connectivity the bottom-left pixel (2,0) has
// no cross-border contact; (2,3) and (3,2) connect diagonally across
// nothing (both on the right tile) — so exactly one change pair results.
func TestSolveMergeTwoTiles(t *testing.T) {
	im := image.New(4)
	im.Set(0, 0, 1)
	im.Set(0, 1, 1)
	im.Set(0, 2, 1)
	im.Set(2, 0, 1)
	im.Set(2, 3, 1)
	im.Set(3, 2, 1)

	m, err := bdm.NewMachine(2, machine.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := image.NewLayout(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	st := newSharedState(m, lay)
	st.prepare(im, opt)
	ph := st.phases[0]
	if ph.Orient != Horizontal {
		t.Fatalf("first phase %v, want horizontal", ph.Orient)
	}

	var changes []sortutil.Pair
	_, err = m.Run(func(pr *bdm.Proc) {
		rank := pr.Rank()
		loc := &st.locals[rank]
		pix := st.tilePix.Local(pr)
		lab := st.tileLab.Local(pr)
		seq.TileLabeler(pix, lay.Q, lay.R, opt.Conn, opt.Mode,
			func(i, j int) uint32 { return lay.InitialLabel(rank, i, j) }, lab, nil)
		// Publish color and label edges.
		copy(st.pixN.Local(pr), pix[:lay.R])
		copy(st.pixS.Local(pr), pix[(lay.Q-1)*lay.R:])
		pe, pw := st.pixE.Local(pr), st.pixW.Local(pr)
		for i := 0; i < lay.Q; i++ {
			pw[i] = pix[i*lay.R]
			pe[i] = pix[i*lay.R+lay.R-1]
		}
		st.refreshLabelEdges(pr, lab)
		pr.Barrier()

		grp := GroupOf(st.lay, ph, rank)
		if rank == grp.Manager {
			st.loadSide(pr, loc, grp, 0)
			st.sortSide(pr, loc, 0, grp.Side)
		}
		if rank == grp.Shadow {
			st.loadSide(pr, loc, grp, 1)
			st.sortSide(pr, loc, 1, grp.Side)
			st.shCnt.Local(pr)[0] = uint32(len(loc.pairs[1]))
			sl, sp := st.shSortLab.Local(pr), st.shSortPos.Local(pr)
			for i, pa := range loc.pairs[1] {
				sl[i] = pa.Key
				sp[i] = pa.Value
			}
			copy(st.shPixPos.Local(pr)[:grp.Side], loc.sidePix[1])
		}
		pr.Barrier()
		if rank == grp.Manager {
			st.fetchShadowSide(pr, loc, grp)
			changes = st.solveMerge(pr, loc, grp)
		}
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(changes) != 1 {
		t.Fatalf("changes = %v, want exactly one pair", changes)
	}
	// Pixel (0,2) has global index 2, so its tile label is 3; the
	// component minimum is pixel (0,0) with label 1.
	if changes[0].Key != 3 || changes[0].Value != 1 {
		t.Errorf("change = (%d -> %d), want (3 -> 1)", changes[0].Key, changes[0].Value)
	}
}

// TestHooksTrackFinalLabels verifies the tile-hook invariant after a full
// run: each hook's current label equals the final label of the pixel it
// points to, and its component was flooded consistently.
func TestHooksTrackFinalLabels(t *testing.T) {
	im := image.RandomBinary(64, 0.6, 17)
	m, err := bdm.NewMachine(16, machine.CM5)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := image.NewLayout(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	st := newSharedState(m, lay)
	st.prepare(im, opt)
	if _, err := m.Run(st.procMain); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 16; rank++ {
		lab := st.tileLab.Row(rank)
		for _, h := range st.locals[rank].hooks {
			if lab[h.off] != h.cur {
				t.Fatalf("rank %d: hook at %d has cur=%d but pixel label %d",
					rank, h.off, h.cur, lab[h.off])
			}
		}
	}
}

// TestSortSideSkipsBackground ensures only colored pixels enter the sorted
// border pairs.
func TestSortSideSkipsBackground(t *testing.T) {
	m, err := bdm.NewMachine(1, machine.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	loc := &procLocal{}
	loc.sidePix[0] = []uint32{0, 1, 0, 1, 1}
	loc.sideLab[0] = []uint32{0, 42, 0, 7, 7}
	st := &sharedState{}
	if _, err := m.Run(func(pr *bdm.Proc) {
		st.sortSide(pr, loc, 0, 5)
	}); err != nil {
		t.Fatal(err)
	}
	if len(loc.pairs[0]) != 3 {
		t.Fatalf("pairs = %v, want 3 colored entries", loc.pairs[0])
	}
	// Sorted by label: 7, 7, 42.
	if loc.pairs[0][0].Key != 7 || loc.pairs[0][1].Key != 7 || loc.pairs[0][2].Key != 42 {
		t.Errorf("pairs not label-sorted: %v", loc.pairs[0])
	}
}
