package stream

import (
	"math"
	"slices"
	"sync/atomic"

	"parimg/internal/errs"
	"parimg/internal/image"
	"parimg/internal/par"
	"parimg/internal/seq"
)

// frontier is the merge state a streaming pass carries from band to band:
// only the components that reach the last committed band's bottom row are
// open, and only they keep state. Each open component owns a slot. A
// component that no longer reaches the bottom row closes: pass 1 counts
// it, adds its pixels to the foreground and offers it to the top list, and
// forgets it. So the state between bands is O(cols + TopK), plus one
// (larger root, smaller root) pair per merge of two open components when a
// write pass or a checkpoint record will read the merges.
//
// Within a band the frontier runs a forest over int32 nodes: the slots
// first, then the band's components, each indexed at its seed position in
// the band's pixel buffer, which is dead once the seam has read its top
// row and its bottom row is saved. Nodes link by minimum label, so every
// root is its component's global minimum seed, as in UnionFind64: a
// slot's label is its root, a band component's is base + its band label.
type frontier struct {
	// Carried between bands, and checkpointed.
	prevPix    []uint32    // bottom pixel row of the last committed band
	slotRow    []uint32    // slot of each foreground column of prevPix, 0 at background
	slotRoot   []uint64    // per slot: its component's root
	slotSize   []int64     // per slot: its component's pixel count so far (pass 1)
	top        []Component // the topK largest closed components, a heap (see offer)
	merges     []uint64    // (larger root, smaller root) per merge of two open components
	stripComps int64       // components of every band, as the band engine counted them
	links      int64       // seam unites that joined two distinct sets
	closed     int64       // components closed so far
	fg         int64       // pixels of the closed components

	topK       int  // the top list's capacity
	keepMerges bool // record merges: a write pass or a checkpoint record will read them

	// Per-band working state, reused across bands. The band forest, one
	// entry per node:
	parent []int32
	key    []uint64 // the node's label
	size   []int64  // the node's pixel count (pass 1)
	slot   []int32  // the next band's slot of a root on the bottom row, -1 otherwise

	edges []uint32 // the seam's (slot, band label) edges
	base  uint64   // the band's global seed offset
	pix   []uint32 // the band's dead pixel buffer: the node index at each seed position
	lab   []uint32 // one label row of the band: its first for the seam, its last for the commit
}

// newFrontier returns the empty frontier of a cols-wide image that keeps
// the topK largest closed components, and records merges when keepMerges
// is set.
func newFrontier(cols, topK int, keepMerges bool) *frontier {
	return &frontier{prevPix: make([]uint32, cols), slotRow: make([]uint32, cols),
		lab: make([]uint32, cols), topK: topK, keepMerges: keepMerges}
}

// begin starts the band at global seed offset base, whose pixels are pix
// and whose band engine counted comps components: the open slots become
// nodes 0..S-1 of a fresh band forest.
func (f *frontier) begin(base uint64, pix []uint32, comps int) error {
	S := len(f.slotRoot)
	if int64(S)+int64(comps) > math.MaxInt32 {
		return &errs.InputError{Op: op, Kind: errs.ErrLabelOverflow,
			Detail: "band components and open components exceed the int32 frontier"}
	}
	f.base, f.pix = base, pix
	f.parent, f.key, f.size, f.slot = f.parent[:0], f.key[:0], f.size[:0], f.slot[:0]
	for s, r := range f.slotRoot {
		f.add(r, f.slotSize[s])
	}
	return nil
}

// add appends a root node of the given label and pixel count.
func (f *frontier) add(label uint64, size int64) int32 {
	n := int32(len(f.parent))
	f.parent = append(f.parent, n)
	f.key = append(f.key, label)
	f.size = append(f.size, size)
	f.slot = append(f.slot, -1)
	return n
}

// node returns the node of band label l, adding it on first use. The node
// index lives at l's seed position l-1 in the dead pixel buffer; a stale
// pixel value there cannot pass for it, because only l's own node carries
// the label base + l.
func (f *frontier) node(l uint32) int32 {
	n := f.pix[l-1]
	if int(n) < len(f.key) && f.key[n] == f.base+uint64(l) {
		return int32(n)
	}
	m := f.add(f.base+uint64(l), 0)
	f.pix[l-1] = uint32(m)
	return m
}

// find returns x's root, halving the path as it walks.
func (f *frontier) find(x int32) int32 {
	for {
		p := f.parent[x]
		if p == x {
			return x
		}
		gp := f.parent[p]
		f.parent[x] = gp
		x = gp
	}
}

// unite links the larger-labelled root under the smaller and reports
// whether a and b were in distinct sets.
func (f *frontier) unite(a, b int32) bool {
	a, b = f.find(a), f.find(b)
	if a == b {
		return false
	}
	if f.key[a] > f.key[b] {
		a, b = b, a
	}
	f.parent[b] = a
	return true
}

// seam merges the band (pixels pix, whole rows of the frontier's width,
// labeled by the run tables of strips) with the frontier: it paints the
// band's first label row, extracts the union edges between the saved
// bottom row, labelled by slot, and the band's top row, saves the band's
// bottom pixel row, and unites the edges in the band forest. It returns
// the raw adjacency count and the links. The first band (base 0) has no
// seam. A raised stop cuts the edge list short; the caller discards the
// run.
func (f *frontier) seam(pix []uint32, strips []seq.BandLabeler, conn image.Connectivity,
	mode seq.Mode, stop *atomic.Bool) (pairs int64, links int) {
	cols := len(f.prevPix)
	f.edges = f.edges[:0]
	if f.base > 0 {
		strips[0].PaintRow(f.lab, 0)
		f.edges, pairs = par.AppendBoundaryEdges(f.edges, f.prevPix, pix[:cols],
			f.slotRow, f.lab, conn, mode, stop)
	}
	copy(f.prevPix, pix[len(pix)-cols:])
	for k := 0; k+1 < len(f.edges); k += 2 {
		if f.unite(int32(f.edges[k]), f.node(f.edges[k+1])) {
			links++
		}
	}
	return pairs, links
}

// fold adds every run of the band, walked strip by strip in row-major
// order through the strips' run tables, to its component's node, and
// returns the band's seed count: the runs whose final label is their own
// first pixel. A component's seed run comes first among its runs, so it
// indexes the node before any later run reads it.
func (f *frontier) fold(strips []seq.BandLabeler) int {
	seeds := 0
	for w := range strips {
		b := &strips[w]
		for i := 0; i < b.Rows(); i++ {
			runs, labels, seed := b.Row(i)
			for k, l := range labels {
				var n int32
				if l == seed+uint32(runs[2*k]) {
					n = f.node(l)
					seeds++
				} else {
					n = int32(f.pix[l-1])
				}
				f.size[n] += int64(runs[2*k+1] - runs[2*k])
			}
		}
	}
	return seeds
}

// commit ends the band labeled by the run tables of strips. With census
// set (pass 1) it first sums each set's pixels into its root and records
// every slot that joined another slot's set as a merge of two open
// components. Both passes then paint the band's last label row and
// rebuild the slot row and the slots from it, one slot per distinct root
// in first-seen order. Last, pass 1 closes every root that does not reach
// that row.
func (f *frontier) commit(strips []seq.BandLabeler, census bool) {
	S := len(f.slotRoot)
	if census {
		for n := range f.parent {
			r := f.find(int32(n))
			if r == int32(n) {
				continue
			}
			f.size[r] += f.size[n]
			if n < S && f.keepMerges {
				// A slot's label is below every band label, so the root
				// of a set holding a slot is a slot too.
				f.merges = append(f.merges, f.key[n], f.key[r])
			}
		}
	}
	f.slotRoot, f.slotSize = f.slotRoot[:0], f.slotSize[:0]
	bottom := &strips[len(strips)-1]
	bottom.PaintRow(f.lab, bottom.Rows()-1)
	var last uint32
	var s int32
	for j, l := range f.lab {
		if l == 0 {
			f.slotRow[j] = 0
			continue
		}
		if l != last {
			last = l
			r := f.find(f.node(l))
			if f.slot[r] < 0 {
				f.slot[r] = int32(len(f.slotRoot))
				f.slotRoot = append(f.slotRoot, f.key[r])
				f.slotSize = append(f.slotSize, f.size[r])
			}
			s = f.slot[r]
		}
		f.slotRow[j] = uint32(s)
	}
	if census {
		for n, p := range f.parent {
			if p == int32(n) && f.slot[n] < 0 {
				f.close(f.key[n], f.size[n])
			}
		}
	}
}

// root returns the root band label l had when its band committed: its set's
// root when it touches the top row (its seed lies there, l <= cols), and
// otherwise its own seed, since only top-row components meet the seam.
func (f *frontier) root(l uint32) uint64 {
	if int(l) <= len(f.prevPix) {
		return f.key[f.find(f.node(l))]
	}
	return f.base + uint64(l)
}

// finish closes every component still open after the last band.
func (f *frontier) finish() {
	for s, r := range f.slotRoot {
		f.close(r, f.slotSize[s])
	}
}

// close counts a finished component and offers it to the top list.
func (f *frontier) close(label uint64, size int64) {
	f.closed++
	f.fg += size
	f.offer(Component{Label: label, Size: size})
}

// below reports whether a ranks after b in Result.Top's order: smaller,
// or as large with the larger label.
func below(a, b Component) bool {
	if a.Size != b.Size {
		return a.Size < b.Size
	}
	return a.Label > b.Label
}

// offer keeps c if it ranks among the topK largest components offered so
// far. The top list is a binary min-heap under below: its first entry is
// the one the next better offer evicts.
func (f *frontier) offer(c Component) {
	t := f.top
	switch {
	case len(t) < f.topK:
		t = append(t, c)
		for i := len(t) - 1; i > 0; {
			up := (i - 1) / 2
			if !below(t[i], t[up]) {
				break
			}
			t[i], t[up] = t[up], t[i]
			i = up
		}
		f.top = t
	case len(t) > 0 && below(t[0], c):
		t[0] = c
		for i := 0; ; {
			m := i
			for _, ch := range [2]int{2*i + 1, 2*i + 2} {
				if ch < len(t) && below(t[ch], t[m]) {
					m = ch
				}
			}
			if m == i {
				break
			}
			t[i], t[m] = t[m], t[i]
			i = m
		}
	}
}

// sortedTop returns the top list in Result.Top's order: largest first,
// ties broken by the smaller label.
func (f *frontier) sortedTop() []Component {
	out := append([]Component(nil), f.top...)
	slices.SortFunc(out, func(a, b Component) int {
		switch {
		case below(b, a):
			return -1
		case below(a, b):
			return 1
		}
		return 0
	})
	return out
}
