package par

import "sync/atomic"

// cuf is a wait-free concurrent union-find in the style of Liu and Tarjan
// ("Simple Concurrent Connected Components Algorithms"): a flat parent
// array updated with compare-and-swap, unite-by-minimum linking, and path
// halving during finds. It resolves the tile-border merge graph: the nodes
// are the strip-local run labels (global row-major seed index + 1) and the
// convention parent[x] == 0 means x is a root, which makes an all-zero
// array the ready state — no O(n^2) re-initialization between runs.
//
// Because unite always links the larger root under the smaller, parents
// strictly decrease along every path, so finds terminate even while other
// workers are linking, and the root of a merged set is the set's minimum
// label — exactly the canonical label the sequential BFS labeler assigns.
type cuf struct {
	parent []uint32
}

// reset readies the structure for labels 1..size-1. The array is assumed
// already zeroed (the post-run cleanup restores this invariant); only
// growth allocates.
func (u *cuf) reset(size int) {
	if cap(u.parent) < size {
		u.parent = make([]uint32, size)
		return
	}
	u.parent = u.parent[:size]
}

// find returns the current root of x's set, halving the path as it walks.
// Safe to call concurrently with unite.
func (u *cuf) find(x uint32) uint32 {
	for {
		p := atomic.LoadUint32(&u.parent[x])
		if p == 0 {
			return x
		}
		gp := atomic.LoadUint32(&u.parent[p])
		if gp == 0 {
			return p
		}
		// Path halving: gp < p < x, so a racing better value is never
		// overwritten (CAS fails harmlessly).
		atomic.CompareAndSwapUint32(&u.parent[x], p, gp)
		x = gp
	}
}

// unite merges the sets of a and b, returning true when the call performed
// the link (false if they were already one set). Safe to call concurrently.
func (u *cuf) Unite(a, b uint32) bool {
	for {
		ra, rb := u.find(a), u.find(b)
		if ra == rb {
			return false
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Link the larger root under the smaller. A lost race means rb
		// gained a parent concurrently; retry from the new roots.
		if atomic.CompareAndSwapUint32(&u.parent[rb], 0, ra) {
			return true
		}
		a, b = ra, rb
	}
}

// clear zeroes the given entries, restoring the all-zero ready state. Each
// worker clears the edge endpoints in its slab, the labels it passed to
// unite; together the lists cover every written entry: every written index
// and every written parent value is an edge endpoint (unite links roots
// found from endpoints, and path halving only writes prior parent values,
// which bottom out at the endpoints themselves), and every endpoint
// appears in some worker's list.
func (u *cuf) clear(labels []uint32) {
	for _, l := range labels {
		atomic.StoreUint32(&u.parent[l], 0)
	}
}
