package par

import (
	"sync/atomic"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// This file is the slab-merge seam: boundary extraction, the sparse
// forest and the resolution loop of Phase 2. It works over any pair of
// adjacent label slabs — the in-memory strips of the resident engine
// (uint32 labels) and the band windows of the out-of-core streaming
// pipeline (uint64 global labels, since a streamed image's pixel count may
// exceed 2^32) — so both engines run one seam and cannot drift.

// BoundaryLabel is the label word of a slab: the resident engine's uint32
// strip labels or the streaming pipeline's uint64 global labels.
type BoundaryLabel interface{ ~uint32 | ~uint64 }

// Forest is a sparse union-find over slab labels: parents live in a map,
// and a label with no entry is its own root, so only labels that reach a
// seam cost memory — never one word per pixel. Linking is unite-by-minimum
// with path halving, so every root is its set's minimum label: the
// minimum global seed of the component, which is the label seq.LabelBFS
// paints. The zero value is an empty forest ready to use. Find and Unite
// write and are not safe for concurrent use; once uniting is done,
// concurrent readers may share Root.
type Forest[L BoundaryLabel] struct {
	parent map[L]L
}

// Find returns the root of x's set, halving the path as it walks.
func (f *Forest[L]) Find(x L) L {
	for {
		p, ok := f.parent[x]
		if !ok {
			return x
		}
		gp, ok := f.parent[p]
		if !ok {
			return p
		}
		// Path halving: gp < p < x by unite-by-minimum, so the rewrite
		// only ever lowers the entry.
		f.parent[x] = gp
		x = gp
	}
}

// Root returns the root of x's set without modifying the forest.
func (f *Forest[L]) Root(x L) L {
	for {
		p, ok := f.parent[x]
		if !ok {
			return x
		}
		x = p
	}
}

// Unite merges the sets of a and b, linking the larger root under the
// smaller, and returns true when the call performed the link (false if
// they were already one set).
func (f *Forest[L]) Unite(a, b L) bool {
	ra, rb := f.Find(a), f.Find(b)
	if ra == rb {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	if f.parent == nil {
		f.parent = make(map[L]L)
	}
	f.parent[rb] = ra
	return true
}

// Reset empties the forest, keeping the map's storage for reuse.
func (f *Forest[L]) Reset() { clear(f.parent) }

// Parents returns the forest's (child, parent) entries: one per label
// that is not a root. The map is the forest's own; the caller must not
// modify it. Uniting every entry's pair into an empty forest rebuilds the
// same roots.
func (f *Forest[L]) Parents() map[L]L { return f.parent }

// AppendBoundaryEdges appends to dst the union edges across the boundary
// between two vertically adjacent slabs, given the bottom pixel row and
// label row of the upper slab (topPix, topLab) and the top rows of the
// lower slab (botPix, botLab), all of one width. One edge (two appended
// labels: top then bottom) is emitted per adjacent like-pixel pair,
// deduplicating consecutive repeats — adjacent boundary pixels of one
// component fragment carry the same label, so a wide overlap emits one
// edge instead of one per pixel (plus up to three per label change under
// Conn8), without any lookup structure. Returns the grown slice and the
// raw adjacency count (pairs before dedup, the obs boundary-pairs
// counter's unit). A non-nil stop is polled every 1024 columns; on
// cancellation the partial slice is returned.
func AppendBoundaryEdges[L BoundaryLabel](dst []L, topPix, botPix []uint32,
	topLab, botLab []L, conn image.Connectivity, mode seq.Mode,
	stop *atomic.Bool) ([]L, int64) {
	n := len(topPix)
	var pairs int64
	var lastA, lastB L
	for j := 0; j < n; j++ {
		if j&1023 == 0 && stop != nil && stop.Load() {
			break
		}
		a := topPix[j]
		if a == 0 {
			continue
		}
		jlo, jhi := j, j
		if conn == image.Conn8 {
			jlo, jhi = j-1, j+1
			if jlo < 0 {
				jlo = 0
			}
			if jhi >= n {
				jhi = n - 1
			}
		}
		for jj := jlo; jj <= jhi; jj++ {
			b := botPix[jj]
			if b == 0 || !mode.Connected(a, b) {
				continue
			}
			pairs++
			la, lb := topLab[j], botLab[jj]
			if la == lastA && lb == lastB {
				continue
			}
			lastA, lastB = la, lb
			dst = append(dst, la, lb)
		}
	}
	return dst, pairs
}

// ResolveBoundary feeds a flat (top, bottom) edge list to the forest, one
// Unite per edge, returning the number of links — unites that joined two
// previously distinct sets, the quantity "strip components minus links =
// total components" charges. A non-nil stop is polled every 8192 edges.
func ResolveBoundary[L BoundaryLabel](edges []L, f *Forest[L], stop *atomic.Bool) int {
	links := 0
	for k := 0; k+1 < len(edges); k += 2 {
		if k&8191 == 0 && stop != nil && stop.Load() {
			break
		}
		if f.Unite(edges[k], edges[k+1]) {
			links++
		}
	}
	return links
}
