package par

import (
	"math/rand"
	"testing"
)

// TestForestMatchesReference checks the seam forest against a reference
// union-find on random edge lists, at uint32 labels and at uint64 labels
// beyond the 32-bit space: Unite reports a link exactly when two sets
// join, every Find and Root equals the component minimum (the canonical
// label the relabel depends on), the forest holds one entry per link, and
// Reset empties it.
func TestForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		size := 2 + rng.Intn(500)
		edges := make([][2]int, rng.Intn(2*size))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(size), rng.Intn(size)}
		}
		checkForest(t, uint32(1), edges, size)
		checkForest(t, uint64(1)<<40, edges, size)
	}
}

// checkForest unites edges (offset by base) into a fresh forest and into a
// dense reference that links the larger root under the smaller, then
// compares the two.
func checkForest[L BoundaryLabel](t *testing.T, base L, edges [][2]int, size int) {
	t.Helper()
	ref := make([]int, size)
	for i := range ref {
		ref[i] = i
	}
	root := func(x int) int {
		for ref[x] != x {
			x = ref[x]
		}
		return x
	}
	var f Forest[L]
	links := 0
	for _, e := range edges {
		ra, rb := root(e[0]), root(e[1])
		if ra > rb {
			ra, rb = rb, ra
		}
		ref[rb] = ra
		if got := f.Unite(base+L(e[0]), base+L(e[1])); got != (ra != rb) {
			t.Fatalf("Unite(%d, %d) = %v, want %v", base+L(e[0]), base+L(e[1]), got, ra != rb)
		}
		if ra != rb {
			links++
		}
	}
	for x := 0; x < size; x++ {
		want := base + L(root(x))
		if got := f.Root(base + L(x)); got != want {
			t.Fatalf("Root(%d) = %d, want the component minimum %d", base+L(x), got, want)
		}
		if got := f.Find(base + L(x)); got != want {
			t.Fatalf("Find(%d) = %d, want the component minimum %d", base+L(x), got, want)
		}
	}
	if got := len(f.Parents()); got != links {
		t.Fatalf("forest holds %d entries after %d links", got, links)
	}
	f.Reset()
	if got := len(f.Parents()); got != 0 {
		t.Fatalf("forest holds %d entries after Reset", got)
	}
}
