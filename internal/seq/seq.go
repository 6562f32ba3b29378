// Package seq implements the sequential building blocks and baselines: the
// row-major breadth-first-search connected components labeler of Section
// 5.1 (which the parallel algorithm runs on each tile), a union-find
// labeler and a classic two-pass scanline labeler used as cross-checking
// baselines, and sequential histogramming.
package seq

import (
	"fmt"

	"parimg/internal/image"
)

// Mode selects which pixels are considered connected.
type Mode int

const (
	// Binary treats every nonzero pixel as foreground; two adjacent
	// foreground pixels are connected regardless of value (Section 5).
	Binary Mode = iota
	// Grey connects adjacent pixels only when they have the same
	// nonzero grey level (Section 6: each component is a set of
	// like-colored connected pixels).
	Grey
)

func (m Mode) String() string {
	if m == Binary {
		return "binary"
	}
	return "grey"
}

// Connected reports whether two foreground colors join under the mode.
func (m Mode) Connected(a, b uint32) bool {
	if a == 0 || b == 0 {
		return false
	}
	return m == Binary || a == b
}

// Histogram tallies pix into h (len k), adding to existing counts: the
// local step of the parallel algorithm. Pixels >= k wrap an error.
func Histogram(pix []uint32, h []uint32) error {
	k := uint32(len(h))
	for _, v := range pix {
		if v >= k {
			return fmt.Errorf("seq: grey level %d outside [0,%d)", v, k)
		}
		h[v]++
	}
	return nil
}

// TileLabeler runs the paper's initialization on one q x r tile: pixels are
// examined in row-major order, and each unmarked colored pixel starts a BFS
// that labels its connected like-colored pixels within the tile. The label
// comes from labelAt(i, j) evaluated at the BFS seed, which the parallel
// algorithm sets to the globally unique (I*q+i)*n + (J*r+j) + 1. The seed
// is the component's row-major-first pixel, so with that formula the label
// is min(global index)+1 over the tile component.
//
// pix and labels are row-major with rows*cols elements; labels must be
// zeroed. Returns the number of components found in the tile.
//
// Following Section 5.1, the scan only needs to look at forward neighbors,
// but the BFS itself explores all neighbors of the connectivity.
func TileLabeler(pix []uint32, rows, cols int, conn image.Connectivity, mode Mode,
	labelAt func(i, j int) uint32, labels []uint32, queue []int32) (int, []int32) {
	if len(pix) != rows*cols || len(labels) != rows*cols {
		// Invariant panic: the tile buffers are sized by the backends from
		// the same layout; a mismatch is a bug, not caller input.
		panic(fmt.Sprintf("seq: TileLabeler size mismatch: %d pixels, %d labels, want %d",
			len(pix), len(labels), rows*cols))
	}
	offs := conn.Offsets()
	comps := 0
	if queue == nil {
		queue = make([]int32, 0, rows*cols)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			idx := i*cols + j
			if pix[idx] == 0 || labels[idx] != 0 {
				continue
			}
			lab := labelAt(i, j)
			if lab == 0 {
				// Invariant panic: labelAt is supplied by the backends
				// and always derives labels as global index + 1 > 0.
				panic("seq: labelAt returned 0, which is reserved for background")
			}
			comps++
			labels[idx] = lab
			queue = append(queue[:0], int32(idx))
			for len(queue) > 0 {
				u := int(queue[len(queue)-1])
				queue = queue[:len(queue)-1]
				ui, uj := u/cols, u%cols
				for _, d := range offs {
					vi, vj := ui+d[0], uj+d[1]
					if vi < 0 || vi >= rows || vj < 0 || vj >= cols {
						continue
					}
					v := vi*cols + vj
					if labels[v] != 0 || !mode.Connected(pix[u], pix[v]) {
						continue
					}
					labels[v] = lab
					queue = append(queue, int32(v))
				}
			}
		}
	}
	return comps, queue
}

// LabelBFS labels a whole image with the paper's sequential algorithm
// (Section 5.1 applied to a single tile covering the image): the label of
// each component is the global row-major index of its first pixel plus one.
// This is the reference labeling that the parallel algorithm must
// reproduce exactly when merges pick minimum representatives.
// It is a thin wrapper over a one-shot Labeler; hot paths that label
// repeatedly should hold a Labeler and reuse its scratch.
func LabelBFS(im *image.Image, conn image.Connectivity, mode Mode) *image.Labels {
	var l Labeler
	return l.Label(im, conn, mode)
}

// Visited is an epoch-stamped visited set over a fixed index range: marking
// writes the current generation number, and advancing the generation with
// Reset invalidates every mark in O(1) instead of re-clearing the array.
// Repeated BFS passes over the same tile therefore do no large clears and,
// once grown, no allocations.
type Visited struct {
	gen []uint32
	cur uint32
}

// Reset prepares the set for n indices with all of them unvisited. The
// backing array is reused when large enough; the generation counter wrap
// (once per 2^32 resets) triggers one full clear.
func (v *Visited) Reset(n int) {
	if cap(v.gen) < n {
		v.gen = make([]uint32, n)
		v.cur = 0
	}
	v.gen = v.gen[:n]
	v.cur++
	if v.cur == 0 { // generation wrapped: old stamps become ambiguous
		for i := range v.gen {
			v.gen[i] = 0
		}
		v.cur = 1
	}
}

// Seen reports whether index i has been marked since the last Reset.
func (v *Visited) Seen(i int32) bool { return v.gen[i] == v.cur }

// Mark marks index i as visited.
func (v *Visited) Mark(i int32) { v.gen[i] = v.cur }

// FloodRelabel relabels, within one tile, the connected like-colored
// component containing seed to newLabel, using BFS over colors (not over
// old labels, so it is correct whether or not border pixels were already
// relabeled). visited must cover rows*cols indices with seed unvisited;
// marks from earlier floods of the same final update stay set, so a
// component is never flooded twice. This is the final interior update of
// Section 5.3.
func FloodRelabel(pix, labels []uint32, rows, cols int, conn image.Connectivity, mode Mode,
	seed int32, newLabel uint32, visited *Visited, queue []int32) []int32 {
	offs := conn.Offsets()
	if queue == nil {
		queue = make([]int32, 0, 64)
	}
	queue = append(queue[:0], seed)
	visited.Mark(seed)
	labels[seed] = newLabel
	head := 0
	for head < len(queue) {
		u := int(queue[head])
		head++
		ui, uj := u/cols, u%cols
		for _, d := range offs {
			vi, vj := ui+d[0], uj+d[1]
			if vi < 0 || vi >= rows || vj < 0 || vj >= cols {
				continue
			}
			v := vi*cols + vj
			if visited.Seen(int32(v)) || !mode.Connected(pix[u], pix[v]) {
				continue
			}
			visited.Mark(int32(v))
			labels[v] = newLabel
			queue = append(queue, int32(v))
		}
	}
	return queue
}
