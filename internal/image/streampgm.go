package image

import (
	"bufio"
	"io"

	"parimg/internal/errs"
)

// This file is the out-of-core half of the PGM support: a header probe and a
// row-window reader over an io.ReaderAt, so the streaming pipeline of
// internal/stream can label images far beyond the resident MaxSide ceiling
// while holding only the bands of rows it is labeling in memory. Unlike
// ReadPGM, the streaming form accepts rectangular images: a satellite scan
// is usually a long strip, and the band decomposition never relies on
// squareness.

const (
	// MaxStreamHeaderBytes bounds how deep into the file the header probe
	// will look for the three P5 header fields (comments included). The
	// spec's tokens are tiny; a header that has not terminated within 64
	// KiB is hostile or corrupt.
	MaxStreamHeaderBytes = 64 << 10
	// MaxStreamDim bounds each PGM dimension the streaming reader accepts.
	// Row and column indices must fit int32 (the run tables of the band
	// labeler store columns as int32), and the bound keeps every byte-count
	// computation comfortably inside int64: 2^31 x 2^31 x 2 bytes < 2^63.
	MaxStreamDim = 1<<31 - 1
)

// PGMHeader describes an on-disk binary (P5) PGM for windowed row access:
// the dimensions, the sample range, and the byte offset where pixel data
// begins. It is the handle the streaming pipeline carries instead of a
// resident *Image.
type PGMHeader struct {
	// Width and Height are the image dimensions in pixels. The streaming
	// reader accepts rectangular images.
	Width, Height int
	// MaxVal is the declared maximum grey value, in [1, MaxPGMVal].
	MaxVal int
	// DataOffset is the byte offset of the first pixel sample.
	DataOffset int64
}

// SampleBytes returns the per-sample width of the pixel data: one byte for
// maxval up to 255, two big-endian bytes beyond (the P5 16-bit form).
func (h *PGMHeader) SampleBytes() int { return pgmSampleBytes(h.MaxVal) }

// Pixels returns the total pixel count as an int64 (it may exceed 2^32 —
// that is the point of the streaming path).
func (h *PGMHeader) Pixels() int64 { return int64(h.Width) * int64(h.Height) }

// countingReaderAt adapts an io.ReaderAt into the sequential io.Reader the
// header tokenizer wants, counting consumed bytes so the pixel-data offset
// can be recovered from the tokenizer's buffered lookahead.
type countingReaderAt struct {
	r   io.ReaderAt
	off int64
}

func (c *countingReaderAt) Read(p []byte) (int, error) {
	n, err := c.r.ReadAt(p, c.off)
	c.off += int64(n)
	return n, err
}

// ReadPGMHeader probes the header of an on-disk binary PGM: magic, width,
// height, maxval (both sample widths), '#' comments included. It validates
// the geometry for streaming use — positive rectangular dimensions up to
// MaxStreamDim per axis, no squareness or MaxSide requirement — and returns
// the header with the pixel-data offset resolved, reading at most
// MaxStreamHeaderBytes. It does not verify the pixel data's presence;
// ReadRows reports truncation when a window is actually fetched.
func ReadPGMHeader(r io.ReaderAt) (PGMHeader, error) {
	const op = "image.ReadPGMHeader"
	cr := &countingReaderAt{r: io.NewSectionReader(r, 0, MaxStreamHeaderBytes)}
	br := bufio.NewReader(cr)
	w, h, maxVal, err := readPGMHeader(br, op)
	if err != nil {
		return PGMHeader{}, err
	}
	if w <= 0 || h <= 0 {
		return PGMHeader{}, errs.Geometry(op, w, 0, "PGM is %dx%d; both dimensions must be positive", w, h)
	}
	if w > MaxStreamDim || h > MaxStreamDim {
		return PGMHeader{}, errs.Geometry(op, w, 0,
			"PGM is %dx%d; the streaming reader caps each dimension at %d", w, h, MaxStreamDim)
	}
	return PGMHeader{
		Width:      w,
		Height:     h,
		MaxVal:     maxVal,
		DataOffset: cr.off - int64(br.Buffered()),
	}, nil
}

// ReadRows decodes the band window of rows [y0, y0+rows) into dst, which
// must hold exactly rows*Width elements. scratch is the reusable raw-byte
// buffer (grown as needed and returned), so steady-state banding allocates
// nothing: the caller's memory stays O(band) regardless of image height.
// Samples above the one-byte range arrive as the spec's two big-endian
// bytes. A window that runs past the file reports a typed truncation error.
func (h *PGMHeader) ReadRows(r io.ReaderAt, y0, rows int, dst []uint32, scratch []byte) ([]byte, error) {
	const op = "image.PGMHeader.ReadRows"
	if y0 < 0 || rows <= 0 || y0+rows > h.Height {
		return scratch, errs.Geometry(op, h.Width, 0,
			"row window [%d,%d) outside image height %d", y0, y0+rows, h.Height)
	}
	if len(dst) != rows*h.Width {
		return scratch, errs.Geometry(op, h.Width, 0,
			"destination holds %d elements, want %d", len(dst), rows*h.Width)
	}
	sb := h.SampleBytes()
	need := rows * h.Width * sb
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	scratch = scratch[:need]
	off := h.DataOffset + int64(y0)*int64(h.Width)*int64(sb)
	if _, err := r.ReadAt(scratch, off); err != nil {
		return scratch, errs.Bad(op, "reading rows [%d,%d) of %d: %v", y0, y0+rows, h.Height, err)
	}
	if sb == 1 {
		for i, b := range scratch {
			dst[i] = uint32(b)
		}
	} else {
		for i := range dst {
			dst[i] = uint32(scratch[2*i])<<8 | uint32(scratch[2*i+1])
		}
	}
	return scratch, nil
}
