package parimg

import (
	"context"
	"testing"
)

// TestPublicParallelMatchesSequential checks the exported host-parallel
// entry points against the exported sequential baseline: labelings must be
// pixel-for-pixel identical and histograms equal.
func TestPublicParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, id := range AllPatterns() {
		im := must(GeneratePattern(id, 96))
		for _, conn := range []Connectivity{Conn4, Conn8} {
			want := must(LabelSequential(im, conn, Binary))
			got, err := Label(ctx, im, LabelOptions{Conn: conn})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Lab {
				if got.Lab[i] != want.Lab[i] {
					t.Fatalf("%v/%v: label mismatch at pixel %d: got %d, want %d",
						id, conn, i, got.Lab[i], want.Lab[i])
				}
			}
		}
	}

	im := DARPAImage()
	hseq, err := HistogramSequential(im, 256)
	if err != nil {
		t.Fatal(err)
	}
	hpar, err := Histogram(ctx, im, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hseq {
		if hseq[i] != hpar[i] {
			t.Fatalf("H[%d] = %d, want %d", i, hpar[i], hseq[i])
		}
	}
}

// TestPublicParallelEngineReuse drives the pinned-engine API through
// LabelIntoContext across sizes, verifying component counts against the
// labeling.
func TestPublicParallelEngineReuse(t *testing.T) {
	eng := NewParallelEngine(4)
	for i, n := range []int{32, 96, 64} {
		im := must(RandomBinary(n, 0.6, uint64(i+1)))
		want := must(LabelSequential(im, Conn8, Binary))
		out := must(NewLabels(n))
		ncomp, err := eng.LabelIntoContext(context.Background(), im, Conn8, Binary, out)
		if err != nil {
			t.Fatal(err)
		}
		if ncomp != want.Components() {
			t.Fatalf("n=%d: components = %d, want %d", n, ncomp, want.Components())
		}
		for j := range want.Lab {
			if out.Lab[j] != want.Lab[j] {
				t.Fatalf("n=%d: mismatch at %d", n, j)
			}
		}
	}
}
