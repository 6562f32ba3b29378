package cc

import (
	"fmt"

	"parimg/internal/bdm"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// RunPropagation labels connected components with the classic iterative
// label-diffusion scheme that many of the Table 2 competitors use (local
// relabel + neighbor exchange until a global fixed point): each processor
// labels its tile once, then repeatedly exchanges border labels with its
// grid neighbors, adopting the minimum label across every connected border
// pair, until no label changes anywhere.
//
// The algorithm is simple and has cheap iterations, but needs a number of
// iterations proportional to the diameter of the largest component measured
// in tiles — O(v + w) in the worst case against the paper's fixed log p
// merges. The dual-spiral catalog image is the adversarial case: its
// components snake through nearly every tile, so diffusion pays hundreds of
// iterations where the paper's algorithm pays log p. This is the baseline
// the benchmark harness compares against (BenchmarkBaselinePropagation).
//
// The final labeling is canonical (minimum initial label per component),
// identical to Run's and to seq.LabelBFS's.
func RunPropagation(m *bdm.Machine, im *image.Image, opt Options) (*Result, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if err := im.Check(); err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	lay, err := image.NewLayout(im.N, m.P())
	if err != nil {
		return nil, err
	}

	st := newPropState(m, lay, im, opt)
	m.Reset()
	report, err := m.Run(st.procMain)
	if err != nil {
		return nil, err
	}

	out := image.NewLabels(im.N)
	for rank := 0; rank < m.P(); rank++ {
		lay.GatherLabels(out, rank, st.tileLab.Row(rank))
	}
	return &Result{
		Labels:     out,
		Components: out.Components(),
		Report:     report,
		Phases:     st.iterations,
	}, nil
}

// propState is the shared state of the propagation baseline.
type propState struct {
	lay image.Layout
	opt Options

	tilePix *bdm.Spread[uint32]
	tileLab *bdm.Spread[uint32]

	pixN, pixS, labN, labS *bdm.Spread[uint32] // length r
	pixE, pixW, labE, labW *bdm.Spread[uint32] // length q

	changed *bdm.Spread[uint32] // 1 per processor

	comps      [][]int32  // per rank: tile-component id per pixel, -1 bg
	compLabels [][]uint32 // per rank: current label per tile component

	iterations int
}

func newPropState(m *bdm.Machine, lay image.Layout, im *image.Image, opt Options) *propState {
	q, r := lay.Q, lay.R
	st := &propState{
		lay:     lay,
		opt:     opt,
		tilePix: bdm.NewSpread[uint32](m, q*r),
		tileLab: bdm.NewSpread[uint32](m, q*r),
		pixN:    bdm.NewSpread[uint32](m, r),
		pixS:    bdm.NewSpread[uint32](m, r),
		labN:    bdm.NewSpread[uint32](m, r),
		labS:    bdm.NewSpread[uint32](m, r),
		pixE:    bdm.NewSpread[uint32](m, q),
		pixW:    bdm.NewSpread[uint32](m, q),
		labE:    bdm.NewSpread[uint32](m, q),
		labW:    bdm.NewSpread[uint32](m, q),
		changed: bdm.NewSpread[uint32](m, 1),

		comps:      make([][]int32, m.P()),
		compLabels: make([][]uint32, m.P()),
	}
	for rank := 0; rank < m.P(); rank++ {
		lay.Scatter(im, rank, st.tilePix.Row(rank))
	}
	return st
}

func (st *propState) procMain(pr *bdm.Proc) {
	rank := pr.Rank()
	lay := st.lay
	q, r := lay.Q, lay.R
	pix := st.tilePix.Local(pr)
	lab := st.tileLab.Local(pr)

	// Initialization: tile components once; component c's label starts
	// at the globally unique initial label of its seed pixel.
	comp := make([]int32, q*r)
	var compLabels []uint32
	{
		for i := range lab {
			lab[i] = 0
		}
		seq.TileLabeler(pix, q, r, st.opt.Conn, st.opt.Mode,
			func(i, j int) uint32 {
				compLabels = append(compLabels, lay.InitialLabel(rank, i, j))
				return uint32(len(compLabels)) // 1-based component id
			}, lab, nil)
		for i := range comp {
			if lab[i] == 0 {
				comp[i] = -1
			} else {
				comp[i] = int32(lab[i]) - 1
			}
		}
		pr.Work(opsPerPixelBFS * q * r)
	}
	st.comps[rank] = comp
	st.compLabels[rank] = compLabels

	// Static color edges.
	copy(st.pixN.Local(pr), pix[:r])
	copy(st.pixS.Local(pr), pix[(q-1)*r:])
	pe, pw := st.pixE.Local(pr), st.pixW.Local(pr)
	for i := 0; i < q; i++ {
		pw[i] = pix[i*r]
		pe[i] = pix[i*r+r-1]
	}
	pr.Work(opsPerBorderPixel * 2 * (q + r))
	pr.Barrier()

	gi, gj := lay.GridPos(rank)
	neighbor := func(di, dj int) int {
		ni, nj := gi+di, gj+dj
		if ni < 0 || ni >= lay.V || nj < 0 || nj >= lay.W {
			return -1
		}
		return lay.Rank(ni, nj)
	}
	up, down := neighbor(-1, 0), neighbor(1, 0)
	left, right := neighbor(0, -1), neighbor(0, 1)

	// Prefetch buffers for the four facing edges and, for
	// 8-connectivity, the four diagonal corner pixels.
	nPix := make([]uint32, r)
	nLab := make([]uint32, r)
	sPix := make([]uint32, r)
	sLab := make([]uint32, r)
	ePix := make([]uint32, q)
	eLab := make([]uint32, q)
	wPix := make([]uint32, q)
	wLab := make([]uint32, q)

	iter := 0
	for {
		iter++
		// Publish current border labels.
		ln, ls := st.labN.Local(pr), st.labS.Local(pr)
		le, lw := st.labE.Local(pr), st.labW.Local(pr)
		for j := 0; j < r; j++ {
			if c := comp[j]; c >= 0 {
				ln[j] = compLabels[c]
			} else {
				ln[j] = 0
			}
			if c := comp[(q-1)*r+j]; c >= 0 {
				ls[j] = compLabels[c]
			} else {
				ls[j] = 0
			}
		}
		for i := 0; i < q; i++ {
			if c := comp[i*r]; c >= 0 {
				lw[i] = compLabels[c]
			} else {
				lw[i] = 0
			}
			if c := comp[i*r+r-1]; c >= 0 {
				le[i] = compLabels[c]
			} else {
				le[i] = 0
			}
		}
		pr.Work(2 * (q + r))
		pr.Barrier()

		// Exchange with the four neighbors.
		if up >= 0 {
			bdm.Get(pr, nPix, st.pixS, up, 0)
			bdm.Get(pr, nLab, st.labS, up, 0)
		}
		if down >= 0 {
			bdm.Get(pr, sPix, st.pixN, down, 0)
			bdm.Get(pr, sLab, st.labN, down, 0)
		}
		if left >= 0 {
			bdm.Get(pr, wPix, st.pixE, left, 0)
			bdm.Get(pr, wLab, st.labE, left, 0)
		}
		if right >= 0 {
			bdm.Get(pr, ePix, st.pixW, right, 0)
			bdm.Get(pr, eLab, st.labW, right, 0)
		}
		pr.Sync()

		changed := false
		adopt := func(myOff int, theirPix, theirLab uint32) {
			c := comp[myOff]
			if c < 0 || theirPix == 0 {
				return
			}
			if !st.opt.Mode.Connected(pix[myOff], theirPix) {
				return
			}
			if theirLab != 0 && theirLab < compLabels[c] {
				compLabels[c] = theirLab
				changed = true
			}
		}
		diag := st.opt.Conn == image.Conn8
		// North edge vs the upper neighbor's south edge.
		if up >= 0 {
			for j := 0; j < r; j++ {
				adopt(j, nPix[j], nLab[j])
				if diag {
					if j > 0 {
						adopt(j, nPix[j-1], nLab[j-1])
					}
					if j < r-1 {
						adopt(j, nPix[j+1], nLab[j+1])
					}
				}
			}
		}
		if down >= 0 {
			for j := 0; j < r; j++ {
				adopt((q-1)*r+j, sPix[j], sLab[j])
				if diag {
					if j > 0 {
						adopt((q-1)*r+j, sPix[j-1], sLab[j-1])
					}
					if j < r-1 {
						adopt((q-1)*r+j, sPix[j+1], sLab[j+1])
					}
				}
			}
		}
		if left >= 0 {
			for i := 0; i < q; i++ {
				adopt(i*r, wPix[i], wLab[i])
				if diag {
					if i > 0 {
						adopt(i*r, wPix[i-1], wLab[i-1])
					}
					if i < q-1 {
						adopt(i*r, wPix[i+1], wLab[i+1])
					}
				}
			}
		}
		if right >= 0 {
			for i := 0; i < q; i++ {
				adopt(i*r+r-1, ePix[i], eLab[i])
				if diag {
					if i > 0 {
						adopt(i*r+r-1, ePix[i-1], eLab[i-1])
					}
					if i < q-1 {
						adopt(i*r+r-1, ePix[i+1], eLab[i+1])
					}
				}
			}
		}
		// Diagonal corner neighbors under 8-connectivity.
		if diag {
			if nw := neighbor(-1, -1); nw >= 0 {
				adopt(0, bdm.GetScalar(pr, st.pixS, nw, r-1), bdm.GetScalar(pr, st.labS, nw, r-1))
			}
			if ne := neighbor(-1, 1); ne >= 0 {
				adopt(r-1, bdm.GetScalar(pr, st.pixS, ne, 0), bdm.GetScalar(pr, st.labS, ne, 0))
			}
			if sw := neighbor(1, -1); sw >= 0 {
				adopt((q-1)*r, bdm.GetScalar(pr, st.pixN, sw, r-1), bdm.GetScalar(pr, st.labN, sw, r-1))
			}
			if se := neighbor(1, 1); se >= 0 {
				adopt((q-1)*r+r-1, bdm.GetScalar(pr, st.pixN, se, 0), bdm.GetScalar(pr, st.labN, se, 0))
			}
			pr.Sync()
		}
		pr.Work(opsPerBorderPixel * 2 * (q + r) * 3)

		// Global convergence: every processor publishes its change
		// flag and scans everyone's.
		if changed {
			st.changed.Local(pr)[0] = 1
		} else {
			st.changed.Local(pr)[0] = 0
		}
		pr.Barrier()
		any := false
		for rnk := 0; rnk < pr.P(); rnk++ {
			if bdm.GetScalar(pr, st.changed, rnk, 0) != 0 {
				any = true
			}
		}
		pr.Sync()
		pr.Work(pr.P())
		pr.Barrier()
		if !any {
			break
		}
	}
	if rank == 0 {
		st.iterations = iter
	}

	// Materialize the final per-pixel labels.
	for i := range lab {
		if c := comp[i]; c >= 0 {
			lab[i] = compLabels[c]
		} else {
			lab[i] = 0
		}
	}
	pr.Work(2 * q * r)
	pr.Barrier()
}
