package par

import (
	"math/rand"
	"sync"
	"testing"
)

// refDSU is a plain sequential disjoint-set used as the oracle for the
// concurrent structure's canonicality property.
type refDSU struct{ parent []uint32 }

func newRefDSU(size int) *refDSU {
	d := &refDSU{parent: make([]uint32, size)}
	for i := range d.parent {
		d.parent[i] = uint32(i)
	}
	return d
}

func (d *refDSU) find(x uint32) uint32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *refDSU) unite(a, b uint32) {
	ra, rb := d.find(a), d.find(b)
	if ra > rb {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
}

// randomEdges builds m edges over labels 1..size-1 (label 0 is the cuf
// background sentinel and never participates).
func randomEdges(rng *rand.Rand, size, m int) []uint32 {
	edges := make([]uint32, 0, 2*m)
	for i := 0; i < m; i++ {
		a := uint32(1 + rng.Intn(size-1))
		b := uint32(1 + rng.Intn(size-1))
		edges = append(edges, a, b)
	}
	return edges
}

// checkCanonical asserts that for every label the concurrent structure's
// root equals the reference component minimum — the unite-by-minimum
// canonicality guarantee the relabel phase depends on.
func checkCanonical(t *testing.T, u *cuf, edges []uint32, size int, ctx string) {
	t.Helper()
	ref := newRefDSU(size)
	for k := 0; k+1 < len(edges); k += 2 {
		ref.unite(edges[k], edges[k+1])
	}
	for x := uint32(1); x < uint32(size); x++ {
		if got, want := u.find(x), ref.find(x); got != want {
			t.Fatalf("%s: find(%d) = %d, want component minimum %d", ctx, x, got, want)
		}
	}
}

// checkCleared drives the real cleanup contract: each worker clears exactly
// its own edge slab, after which the whole array must be back to all-zero —
// the endpoint-coverage invariant that lets the engine skip an O(n^2) reset.
func checkCleared(t *testing.T, u *cuf, slabs [][]uint32, ctx string) {
	t.Helper()
	var wg sync.WaitGroup
	for _, slab := range slabs {
		wg.Add(1)
		go func(s []uint32) {
			defer wg.Done()
			u.clear(s)
		}(slab)
	}
	wg.Wait()
	for i, p := range u.parent {
		if p != 0 {
			t.Fatalf("%s: parent[%d] = %d after concurrent clear, want all-zero", ctx, i, p)
		}
	}
}

// splitSlabs deals edges round-robin into w per-worker slabs, mirroring how
// the engine partitions boundary edges.
func splitSlabs(edges []uint32, w int) [][]uint32 {
	slabs := make([][]uint32, w)
	for k := 0; k+1 < len(edges); k += 2 {
		i := (k / 2) % w
		slabs[i] = append(slabs[i], edges[k], edges[k+1])
	}
	return slabs
}

// TestCufConcurrentUniteCanonical hammers unite from several goroutines and
// checks the roots against the sequential oracle, then the clear coverage.
// Run under -race this also proves the border merge's memory safety.
func TestCufConcurrentUniteCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		size := 64 + rng.Intn(512)
		edges := randomEdges(rng, size, size/2+rng.Intn(2*size))
		workers := 2 + rng.Intn(6)
		slabs := splitSlabs(edges, workers)

		var u cuf
		u.reset(size)
		var wg sync.WaitGroup
		for _, slab := range slabs {
			wg.Add(1)
			go func(s []uint32) {
				defer wg.Done()
				for k := 0; k+1 < len(s); k += 2 {
					u.Unite(s[k], s[k+1])
				}
			}(slab)
		}
		wg.Wait()
		checkCanonical(t, &u, edges, size, "unite")
		checkCleared(t, &u, slabs, "unite")
	}
}
