package par

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// workerCounts exercises the sequential fast path, even and odd strip
// splits, and more workers than image rows.
var workerCounts = []int{1, 2, 3, 4, 7, 64}

func requireIdentical(t *testing.T, got, want *image.Labels, ctx string) {
	t.Helper()
	for i := range want.Lab {
		if got.Lab[i] != want.Lab[i] {
			t.Fatalf("%s: label mismatch at pixel %d: got %d, want %d",
				ctx, i, got.Lab[i], want.Lab[i])
		}
	}
}

// mustLabel labels im on e without a context, failing the test on error.
func mustLabel(t *testing.T, e *Engine, im *image.Image, conn image.Connectivity, mode seq.Mode) *image.Labels {
	t.Helper()
	got, err := e.LabelContext(nil, im, conn, mode)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// mustLabelInto is mustLabel into out, returning the component count.
func mustLabelInto(t *testing.T, e *Engine, im *image.Image, conn image.Connectivity, mode seq.Mode, out *image.Labels) int {
	t.Helper()
	comps, err := e.LabelIntoContext(nil, im, conn, mode, out)
	if err != nil {
		t.Fatal(err)
	}
	return comps
}

// cupImage returns a 64x64 ∪ whose arms start inside the middle of three
// strips ([21, 42)) and join only in the strip below. The right arm
// reaches the middle strip only in its last row, so its fragment there
// moves only through the last-row retarget of the relabel. flip mirrors
// it into the ∩, whose arms join only in the strip above.
func cupImage(flip bool) *image.Image {
	const n = 64
	im := image.New(n)
	fill := func(r0, r1, c0, c1 int) {
		for r := r0; r <= r1; r++ {
			row := r
			if flip {
				row = n - 1 - r
			}
			for c := c0; c <= c1; c++ {
				im.Pix[row*n+c] = 1
			}
		}
	}
	fill(24, 56, 8, 11)  // left arm
	fill(41, 56, 40, 43) // right arm
	fill(53, 56, 8, 43)  // the bar that joins them
	return im
}

// TestLabelMatchesSequentialCatalog checks the engine against the
// sequential reference on all nine Figure 1 patterns at sides 64, 201 and
// 512, plus the ∪ and ∩ of cupImage, x {Conn4, Conn8} x {Binary, Grey} at
// several worker counts — exact array compare. Side 201 is a multiple of
// neither 8 nor 64, so every row ends inside a plane word.
func TestLabelMatchesSequentialCatalog(t *testing.T) {
	names := []string{"cup", "cap"}
	ims := []*image.Image{cupImage(false), cupImage(true)}
	for _, n := range []int{64, 201, 512} {
		for _, id := range image.AllPatterns() {
			names = append(names, fmt.Sprintf("%v/n=%d", id, n))
			ims = append(ims, image.Generate(id, n))
		}
	}
	for i, im := range ims {
		for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
			for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
				want := seq.LabelBFS(im, conn, mode)
				for _, w := range workerCounts {
					got := mustLabel(t, NewEngine(w), im, conn, mode)
					requireIdentical(t, got, want,
						fmt.Sprintf("%s/%v/%v/workers=%d", names[i], conn, mode, w))
				}
			}
		}
	}
}

// TestLabelMatchesSequentialDARPA checks the engine on the grey-scale
// benchmark scene in both modes (binary: every nonzero grey level is
// foreground) and both connectivities.
func TestLabelMatchesSequentialDARPA(t *testing.T) {
	im := image.DARPASynthetic()
	for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
		for _, mode := range []seq.Mode{seq.Binary, seq.Grey} {
			want := seq.LabelBFS(im, conn, mode)
			got := mustLabel(t, NewEngine(4), im, conn, mode)
			requireIdentical(t, got, want, fmt.Sprintf("darpa/%v/%v", conn, mode))
		}
	}
}

// TestLabelRandomAndTiny sweeps random images, including sides smaller than
// the worker count and a 1x1 image.
func TestLabelRandomAndTiny(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 33, 128} {
		for _, density := range []float64{0.2, 0.5, 0.8} {
			im := image.RandomBinary(n, density, uint64(n*100)+uint64(density*10))
			want := seq.LabelBFS(im, image.Conn8, seq.Binary)
			for _, w := range workerCounts {
				got := mustLabel(t, NewEngine(w), im, image.Conn8, seq.Binary)
				requireIdentical(t, got, want, fmt.Sprintf("n=%d/d=%g/w=%d", n, density, w))
			}
		}
	}
}

// TestEngineReuse runs one engine across differing sizes and modes to prove
// the scratch (seam forest and edge list, packed planes, run tables)
// resets correctly.
func TestEngineReuse(t *testing.T) {
	e := NewEngine(4)
	cases := []struct {
		n    int
		mode seq.Mode
	}{{64, seq.Binary}, {32, seq.Grey}, {64, seq.Grey}, {16, seq.Binary}, {64, seq.Binary}}
	for i, c := range cases {
		im := image.RandomGrey(c.n, 8, uint64(i+1))
		want := seq.LabelBFS(im, image.Conn8, c.mode)
		got := mustLabel(t, e, im, image.Conn8, c.mode)
		requireIdentical(t, got, want, fmt.Sprintf("reuse case %d", i))

		// LabelIntoContext on a dirty output must clear it and report the
		// component count.
		out := image.NewLabels(c.n)
		for j := range out.Lab {
			out.Lab[j] = 12345
		}
		comps := mustLabelInto(t, e, im, image.Conn8, c.mode, out)
		requireIdentical(t, out, want, fmt.Sprintf("reuse into case %d", i))
		if comps != want.Components() {
			t.Fatalf("case %d: components = %d, want %d", i, comps, want.Components())
		}
	}
}

// TestLabelPooled pins the package-level entry point's optional arguments:
// a nil context and a nil recorder label like the engine, a recorder
// receives the call's phases, and the pooled engine goes back to the pool
// without it.
func TestLabelPooled(t *testing.T) {
	im := image.Generate(image.DualSpiral, 96)
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	got, err := Label(nil, nil, im, image.Conn8, seq.Binary)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "pooled, no context, no recorder")
	rec := obs.NewRecorder()
	got, err = Label(context.Background(), rec, im, image.Conn8, seq.Binary)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "pooled, context and recorder")
	if rec.Snapshot().WallPhaseNS("strip_label") <= 0 {
		t.Error("recorder passed to Label recorded no strip_label phase")
	}
	rec.Reset()
	if _, err := Label(nil, nil, im, image.Conn8, seq.Binary); err != nil {
		t.Fatal(err)
	}
	if m := rec.Snapshot(); len(m.Phases) != 0 {
		t.Errorf("recorder stayed installed on the pooled engine: %+v", m.Phases)
	}
}

// TestLabelConcurrent labels from many goroutines at once through the
// pooled package API; run under -race this is the engine's data-race proof.
func TestLabelConcurrent(t *testing.T) {
	ims := []*image.Image{
		image.Generate(image.DualSpiral, 64),
		image.Generate(image.ConcentricCircles, 64),
		image.RandomBinary(96, 0.55, 7),
	}
	wants := make([]*image.Labels, len(ims))
	for i, im := range ims {
		wants[i] = seq.LabelBFS(im, image.Conn8, seq.Binary)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				i := (g + iter) % len(ims)
				got, err := Label(nil, nil, ims[i], image.Conn8, seq.Binary)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range wants[i].Lab {
					if got.Lab[j] != wants[i].Lab[j] {
						t.Errorf("goroutine %d: mismatch at %d", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHistogramMatchesSequential checks sharded+tree-merged histograms
// against the host baseline, at several worker counts and bucket counts.
func TestHistogramMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 16, 64, 100} {
		for _, k := range []int{2, 16, 256} {
			im := image.RandomGrey(n, k, uint64(n*k))
			want, err := im.Histogram(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := NewEngine(w).HistogramContext(nil, im, k)
				if err != nil {
					t.Fatalf("n=%d k=%d w=%d: %v", n, k, w, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d w=%d: H[%d]=%d, want %d",
							n, k, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestHistogramOutOfRange checks that out-of-range grey levels error rather
// than corrupt the tally.
func TestHistogramOutOfRange(t *testing.T) {
	im := image.New(8)
	im.Set(3, 3, 9)
	if _, err := NewEngine(4).HistogramContext(nil, im, 8); err == nil {
		t.Fatal("want error for grey level 9 with k=8")
	}
	if _, err := NewEngine(4).HistogramContext(nil, im, 16); err != nil {
		t.Fatalf("k=16: %v", err)
	}
}

// TestHistogramConcurrent exercises the pooled package API under -race.
func TestHistogramConcurrent(t *testing.T) {
	im := image.RandomGrey(128, 64, 3)
	want, err := im.Histogram(64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Histogram(nil, im, 64)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("H[%d]=%d, want %d", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnionFind exercises the seam forest directly: unites over a chain
// must produce one set rooted at the minimum, repeated unites must report
// no link, concurrent Root readers (the parallel relabel's access pattern,
// checked under -race) must all see that minimum, and Reset must restore
// the ready state.
func TestUnionFind(t *testing.T) {
	var u Forest[uint32]
	const chain = 1000
	for pass := 0; pass < 4; pass++ {
		for i := uint32(1); i < chain; i++ {
			if linked := u.Unite(i, i+1); linked != (pass == 0) {
				t.Fatalf("pass %d: Unite(%d, %d) = %v", pass, i, i+1, linked)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(1); i <= chain; i++ {
				if r := u.Root(i); r != 1 {
					t.Errorf("Root(%d) = %d, want 1", i, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := uint32(1); i <= chain; i++ {
		if r := u.Find(i); r != 1 {
			t.Fatalf("Find(%d) = %d, want 1", i, r)
		}
	}
	// Reset restores the ready state.
	u.Reset()
	for i := uint32(1); i <= chain; i++ {
		if r := u.Find(i); r != i {
			t.Fatalf("after Reset: Find(%d) = %d", i, r)
		}
	}
}
