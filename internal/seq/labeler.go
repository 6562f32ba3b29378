package seq

import "parimg/internal/image"

// Labeler is a reusable sequential connected-components labeler: it owns the
// BFS traversal queue so that repeated labelings do no per-call scratch
// allocations. The zero value is ready to use. A Labeler is not safe for
// concurrent use; give each worker its own.
type Labeler struct {
	queue []int32
}

// Label labels a whole image like LabelBFS, allocating only the result.
func (l *Labeler) Label(im *image.Image, conn image.Connectivity, mode Mode) *image.Labels {
	out := image.NewLabels(im.N)
	l.LabelInto(im, conn, mode, out)
	return out
}

// LabelInto labels im into out (which is cleared first) and returns the
// number of components. out must have side im.N.
func (l *Labeler) LabelInto(im *image.Image, conn image.Connectivity, mode Mode, out *image.Labels) int {
	n := im.N
	for i := range out.Lab {
		out.Lab[i] = 0
	}
	return l.LabelTile(im.Pix, n, n, conn, mode,
		func(i, j int) uint32 { return uint32(i*n+j) + 1 }, out.Lab)
}

// LabelTile runs TileLabeler with the Labeler's reusable queue. labels must
// be zeroed by the caller; returns the number of tile components.
func (l *Labeler) LabelTile(pix []uint32, rows, cols int, conn image.Connectivity, mode Mode,
	labelAt func(i, j int) uint32, labels []uint32) int {
	comps, queue := TileLabeler(pix, rows, cols, conn, mode, labelAt, labels, l.queue)
	l.queue = queue
	return comps
}
