package image

import (
	"bufio"
	"fmt"
	"io"

	"parimg/internal/errs"
)

const labelPGMOp = "image.LabelPGMWriter"

// LabelPGMWriter writes the label PGM of every label output: a P5 greymap
// whose samples are dense component ids 1..C in row-major first-seen
// order of the components' roots (background 0), with maxval max(1, C),
// one byte per sample up to 255 components and two big-endian bytes
// beyond. Both PGM readers ingest it back. Not safe for concurrent use.
type LabelPGMWriter struct {
	bw         *bufio.Writer
	pixLeft    int64 // pixels the header declares that are not written yet
	components int64
	sb         int               // bytes per sample
	ids        map[uint64]uint32 // root -> dense id
}

// NewLabelPGMWriter starts a width x height label PGM of the given
// component count on w. A non-positive dimension, or more components than
// the 16-bit samples can name (MaxPGMVal), is refused before a byte is
// written.
func NewLabelPGMWriter(w io.Writer, width, height int, components int64) (*LabelPGMWriter, error) {
	if width < 1 || height < 1 {
		return nil, errs.Geometry(labelPGMOp, width, 0, "label PGM of %dx%d pixels", width, height)
	}
	if components < 0 || components > MaxPGMVal {
		return nil, errs.Bad(labelPGMOp, "component count %d outside [0,%d], the PGM 16-bit sample ceiling",
			components, MaxPGMVal)
	}
	maxVal := max(1, int(components)) // PGM requires maxval >= 1, even for an all-background image
	lw := &LabelPGMWriter{bw: bufio.NewWriterSize(w, 64<<10), pixLeft: int64(width) * int64(height),
		components: components, sb: pgmSampleBytes(maxVal), ids: make(map[uint64]uint32, components)}
	_, _ = fmt.Fprintf(lw.bw, "P5\n%d %d\n%d\n", width, height, maxVal) // buffered, so it cannot fail
	return lw, nil
}

// WriteRows writes the next rows of the labeling, 0 for background. root
// maps a nonzero label to its component's root, the key its id is issued
// under; nil means each label is its own root. Each run of equal labels
// costs one root call and one map lookup. Runs end with the call, so each
// call may bring its own label space, such as a band's local labels.
func (lw *LabelPGMWriter) WriteRows(lab []uint32, root func(uint32) uint64) error {
	if int64(len(lab)) > lw.pixLeft {
		return errs.Bad(labelPGMOp, "%d labels overrun the %d pixels left", len(lab), lw.pixLeft)
	}
	lw.pixLeft -= int64(len(lab))
	sb := lw.sb
	var last, id uint32 // the current run's label and id; background to start
	for len(lab) > 0 {
		if lw.bw.Available() < sb {
			if err := lw.bw.Flush(); err != nil {
				return errs.Bad(labelPGMOp, "writing label PGM: %v", err)
			}
		}
		// Render straight into the buffer's free space, a chunk at a time.
		n := min(len(lab), lw.bw.Available()/sb)
		out := lw.bw.AvailableBuffer()[:n*sb]
		for i, l := range lab[:n] {
			if l != last {
				if last, id = l, 0; l != 0 {
					id = lw.id(l, root)
				}
			}
			if sb == 2 {
				out[2*i], out[2*i+1] = byte(id>>8), byte(id)
			} else {
				out[i] = byte(id)
			}
		}
		_, _ = lw.bw.Write(out) // fits the free space, so it cannot fail
		lab = lab[n:]
	}
	return nil
}

// id returns the dense id of nonzero label l's component, issuing the next
// one when its root is new.
func (lw *LabelPGMWriter) id(l uint32, root func(uint32) uint64) uint32 {
	r := uint64(l)
	if root != nil {
		r = root(l)
	}
	id, ok := lw.ids[r]
	if !ok {
		id = uint32(len(lw.ids)) + 1
		lw.ids[r] = id
	}
	return id
}

// Close flushes the PGM. The header is written before any id is known, so
// Close fails, writing nothing more, when pixels are missing or the
// labeling issued more or fewer ids than the header's component count.
func (lw *LabelPGMWriter) Close() error {
	switch {
	case lw.pixLeft != 0:
		return errs.Bad(labelPGMOp, "label PGM closed with %d pixels unwritten", lw.pixLeft)
	case int64(len(lw.ids)) != lw.components:
		return errs.Bad(labelPGMOp, "labeling issued %d ids; its header declares %d components",
			len(lw.ids), lw.components)
	}
	if err := lw.bw.Flush(); err != nil {
		return errs.Bad(labelPGMOp, "writing label PGM: %v", err)
	}
	return nil
}
