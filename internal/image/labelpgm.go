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
// beyond. Both PGM readers ingest it back. Samples are rendered span by
// span straight into a 64 KiB buffer. Not safe for concurrent use.
type LabelPGMWriter struct {
	bw         *bufio.Writer
	pixLeft    int64 // pixels the header declares that are not written yet
	components int64
	sb         int               // bytes per sample
	ids        map[uint64]uint32 // root -> dense id
	root       uint64            // the last nonzero root looked up
	id         uint32            // and its id
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

// WriteSpan writes the next n samples, all of the component whose root is
// root; root 0 is background. Spans run on across rows and calls, in
// row-major order, and a root is the component's identity across them, so
// a caller renders a labeling run by run without painting it. Each new
// root costs one map lookup; a span of the previous root, or of
// background, costs none. A span past the pixels the header declares is
// refused before any of it is written.
func (lw *LabelPGMWriter) WriteSpan(n int, root uint64) error {
	if n < 0 || int64(n) > lw.pixLeft {
		return errs.Bad(labelPGMOp, "a span of %d samples overruns the %d pixels left", n, lw.pixLeft)
	}
	lw.pixLeft -= int64(n)
	return lw.span(n, root)
}

// WriteRows writes the next rows of a painted labeling, 0 for background.
// root maps a nonzero label to its component's root; nil means each label
// is its own root. Each run of equal labels is one span, and costs one
// root call. Runs end with the call, so each call may bring its own label
// space, such as a band's local labels. Rows past the pixels the header
// declares are refused before any of them is written.
func (lw *LabelPGMWriter) WriteRows(lab []uint32, root func(uint32) uint64) error {
	if int64(len(lab)) > lw.pixLeft {
		return errs.Bad(labelPGMOp, "%d labels overrun the %d pixels left", len(lab), lw.pixLeft)
	}
	lw.pixLeft -= int64(len(lab))
	for i := 0; i < len(lab); {
		l, k := lab[i], i+1
		for k < len(lab) && lab[k] == l {
			k++
		}
		r := uint64(l)
		if l != 0 && root != nil {
			r = root(l)
		}
		if err := lw.span(k-i, r); err != nil {
			return err
		}
		i = k
	}
	return nil
}

// span renders n samples of root's id straight into the buffer's free
// space, flushing whenever it cannot take another sample.
func (lw *LabelPGMWriter) span(n int, root uint64) error {
	id := lw.idOf(root)
	for n > 0 {
		if lw.bw.Available() < lw.sb {
			if err := lw.bw.Flush(); err != nil {
				return errs.Bad(labelPGMOp, "writing label PGM: %v", err)
			}
		}
		k := min(n, lw.bw.Available()/lw.sb)
		out := lw.bw.AvailableBuffer()[:k*lw.sb]
		fillRun(out, lw.sb, id)
		_, _ = lw.bw.Write(out) // fits the free space, so it cannot fail
		n -= k
	}
	return nil
}

// fillRun fills b with the id's sb-byte big-endian sample, repeated:
// short runs a sample at a time, long ones by doubling copies.
func fillRun(b []byte, sb int, id uint32) {
	if sb == 2 {
		b[0], b[1] = byte(id>>8), byte(id)
	} else {
		b[0] = byte(id)
	}
	if len(b) <= 16 {
		for k := sb; k < len(b); k++ {
			b[k] = b[k-sb]
		}
		return
	}
	for k := sb; k < len(b); k *= 2 {
		copy(b[k:], b[:k])
	}
}

// idOf returns the dense id of root's component, 0 for background,
// issuing the next id when the root is new.
func (lw *LabelPGMWriter) idOf(root uint64) uint32 {
	switch root {
	case 0:
		return 0
	case lw.root:
		return lw.id
	}
	id, ok := lw.ids[root]
	if !ok {
		id = uint32(len(lw.ids)) + 1
		lw.ids[root] = id
	}
	lw.root, lw.id = root, id
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
