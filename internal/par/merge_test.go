package par

import (
	"testing"

	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// stripedImage returns an n x n binary image of single-pixel vertical
// columns — the densest possible strip boundary: every other boundary
// pixel starts a cross-boundary edge.
func stripedImage(n int) *image.Image {
	im := image.New(n)
	for i := 0; i < n; i++ {
		for j := 1; j < n; j += 2 {
			im.Pix[i*n+j] = 1
		}
	}
	return im
}

// TestMergeCountersAndCleanup pins the border merge's accounting and the
// seam forest's footprint on the densest boundary: the strip components
// minus the recorded links are the component count, the extraction's dedup
// never reports more edges than pairs, and the forest holds no more
// entries than the run's seam-edge endpoints — only labels that reach a
// seam, never one entry per pixel.
func TestMergeCountersAndCleanup(t *testing.T) {
	im := stripedImage(96)
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	e := NewEngine(5)
	rec := obs.NewRecorder()
	e.SetObserver(rec)
	out := image.NewLabels(im.N)
	comps := mustLabelInto(t, e, im, image.Conn8, seq.Binary, out)
	requireIdentical(t, out, want, "striped")
	if got := int(rec.Counter(obs.CtrStripComponents) - rec.Counter(obs.CtrBorderLinks)); got != comps {
		t.Errorf("strip_components - border_links = %d, want %d", got, comps)
	}
	if rec.Counter(obs.CtrBorderEdges) == 0 || rec.Counter(obs.CtrBorderPairs) < rec.Counter(obs.CtrBorderEdges) {
		t.Errorf("pairs %d, edges %d — want pairs >= edges > 0",
			rec.Counter(obs.CtrBorderPairs), rec.Counter(obs.CtrBorderEdges))
	}
	if got, max := int64(len(e.forest.Parents())), 2*rec.Counter(obs.CtrBorderEdges); got > max {
		t.Errorf("seam forest holds %d entries, want at most the %d seam-edge endpoints", got, max)
	}
}
