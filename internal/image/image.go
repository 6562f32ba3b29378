// Package image provides the n x n grey-level images, the logical processor
// grid and tile layout of Section 3 of the paper, the catalog of nine
// scalable binary test patterns of Figure 1, random images, and a synthetic
// stand-in for the DARPA Image Understanding Benchmark image of Figure 2.
package image

import (
	"fmt"

	"parimg/internal/errs"
)

// MaxSide is the largest supported image side; see errs.MaxSide for the
// uint32 seed-label derivation.
const MaxSide = errs.MaxSide

// Image is an n x n image of k grey levels stored row-major. Grey level 0
// is background; grey levels > 0 are foreground objects.
type Image struct {
	// N is the side length; the image has N*N pixels.
	N int
	// Pix holds the pixels row-major: Pix[i*N+j] is row i, column j.
	Pix []uint32
}

// New returns an all-background n x n image. It is the trusted-caller
// constructor: callers must have validated n (the generators do, the
// checked public constructors go through NewChecked instead).
func New(n int) *Image {
	if n <= 0 || n > MaxSide {
		// Invariant panic: callers validate n before constructing; hostile
		// sides reach NewChecked and return errors instead.
		panic(fmt.Sprintf("image: invalid side %d", n))
	}
	return &Image{N: n, Pix: make([]uint32, n*n)}
}

// NewChecked returns an all-background n x n image, rejecting invalid
// sides with a typed error instead of panicking: ErrGeometry for
// non-positive n, ErrLabelOverflow for n > MaxSide.
func NewChecked(n int) (*Image, error) {
	if err := checkSide("image.NewChecked", n); err != nil {
		return nil, err
	}
	return &Image{N: n, Pix: make([]uint32, n*n)}, nil
}

// checkSide validates an image side: 0 < n <= MaxSide.
func checkSide(op string, n int) error {
	if n <= 0 {
		return errs.Geometry(op, n, 0, "image side %d is not positive", n)
	}
	if n > MaxSide {
		return errs.LabelOverflow(op, n)
	}
	return nil
}

// Check validates the image structure itself — the defense against
// hand-crafted Image values reaching the algorithms: the side must be in
// (0, MaxSide] and the pixel buffer must hold exactly N*N elements. The
// side limit is checked first so an oversized declared side reports
// ErrLabelOverflow even when the buffer is (necessarily) short.
func (im *Image) Check() error {
	if im == nil {
		return errs.Bad("image.Check", "nil image")
	}
	if err := checkSide("image.Check", im.N); err != nil {
		return err
	}
	if len(im.Pix) != im.N*im.N {
		return errs.Geometry("image.Check", im.N, 0,
			"pixel buffer holds %d elements, want %d", len(im.Pix), im.N*im.N)
	}
	return nil
}

// At returns the pixel at row i, column j.
func (im *Image) At(i, j int) uint32 { return im.Pix[i*im.N+j] }

// Set sets the pixel at row i, column j.
func (im *Image) Set(i, j int, v uint32) { im.Pix[i*im.N+j] = v }

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := New(im.N)
	copy(out.Pix, im.Pix)
	return out
}

// MaxGrey returns the maximum grey level present.
func (im *Image) MaxGrey() uint32 {
	var m uint32
	for _, v := range im.Pix {
		if v > m {
			m = v
		}
	}
	return m
}

// CountForeground returns the number of pixels with grey level > 0.
func (im *Image) CountForeground() int {
	n := 0
	for _, v := range im.Pix {
		if v != 0 {
			n++
		}
	}
	return n
}

// Histogram tallies the image into a k-bucket histogram. k must be
// positive; pixels with grey level >= k are an ErrGreyRange error (the
// image does not fit in k grey levels).
func (im *Image) Histogram(k int) ([]int64, error) {
	if k < 1 {
		return nil, errs.GreyRange("image.Histogram", k, "histogram needs at least 1 bucket, got %d", k)
	}
	if err := im.Check(); err != nil {
		return nil, err
	}
	h := make([]int64, k)
	for _, v := range im.Pix {
		if int(v) >= k {
			return nil, errs.GreyRange("image.Histogram", k, "grey level %d outside [0,%d)", v, k)
		}
		h[v]++
	}
	return h, nil
}

// Labels is a per-pixel component labeling of an image: Lab[i*N+j] is the
// positive label of the component containing pixel (i, j), or 0 for
// background pixels.
type Labels struct {
	N   int
	Lab []uint32
}

// NewLabels returns an all-zero labeling for an n x n image. Like New it
// trusts its caller to pass a validated side.
func NewLabels(n int) *Labels {
	if n <= 0 || n > MaxSide {
		// Invariant panic: callers validate n before constructing.
		panic(fmt.Sprintf("image: invalid labeling side %d", n))
	}
	return &Labels{N: n, Lab: make([]uint32, n*n)}
}

// NewLabelsChecked is NewLabels with typed validation, like NewChecked:
// ErrGeometry for non-positive n, ErrLabelOverflow for n > MaxSide.
func NewLabelsChecked(n int) (*Labels, error) {
	if err := checkSide("image.NewLabels", n); err != nil {
		return nil, err
	}
	return &Labels{N: n, Lab: make([]uint32, n*n)}, nil
}

// Check validates the labeling structure the way Image.Check validates an
// image: side in (0, MaxSide], exactly N*N labels.
func (l *Labels) Check() error {
	if l == nil {
		return errs.Bad("labels.Check", "nil labeling")
	}
	if err := checkSide("labels.Check", l.N); err != nil {
		return err
	}
	if len(l.Lab) != l.N*l.N {
		return errs.Geometry("labels.Check", l.N, 0,
			"label buffer holds %d elements, want %d", len(l.Lab), l.N*l.N)
	}
	return nil
}

// At returns the label at row i, column j.
func (l *Labels) At(i, j int) uint32 { return l.Lab[i*l.N+j] }

// Components returns the number of distinct nonzero labels.
func (l *Labels) Components() int {
	seen := make(map[uint32]struct{})
	for _, v := range l.Lab {
		if v != 0 {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// ComponentSizes returns the size of each component keyed by label.
func (l *Labels) ComponentSizes() map[uint32]int {
	sizes := make(map[uint32]int)
	for _, v := range l.Lab {
		if v != 0 {
			sizes[v]++
		}
	}
	return sizes
}

// EquivalentTo reports whether two labelings denote the same partition of
// pixels into components (i.e. they agree up to a bijective renaming of
// nonzero labels, and exactly on background). If not, it returns a
// description of the first disagreement.
func (l *Labels) EquivalentTo(o *Labels) (bool, string) {
	if l.N != o.N {
		return false, fmt.Sprintf("size mismatch: %d vs %d", l.N, o.N)
	}
	fwd := make(map[uint32]uint32)
	rev := make(map[uint32]uint32)
	for idx := range l.Lab {
		a, b := l.Lab[idx], o.Lab[idx]
		if (a == 0) != (b == 0) {
			return false, fmt.Sprintf("pixel %d: background mismatch (%d vs %d)", idx, a, b)
		}
		if a == 0 {
			continue
		}
		if want, ok := fwd[a]; ok {
			if want != b {
				return false, fmt.Sprintf("pixel %d: label %d maps to both %d and %d", idx, a, want, b)
			}
		} else {
			fwd[a] = b
		}
		if want, ok := rev[b]; ok {
			if want != a {
				return false, fmt.Sprintf("pixel %d: label %d mapped from both %d and %d", idx, b, want, a)
			}
		} else {
			rev[b] = a
		}
	}
	return true, ""
}

// Connectivity selects 4- or 8-connectivity (Section 1: two pixels are
// adjacent under 8-connectivity if one lies in any of the eight positions
// surrounding the other; under 4-connectivity only the north, east, south
// and west neighbors are adjacent).
type Connectivity int

const (
	// Conn4 is 4-connectivity (N, E, S, W neighbors).
	Conn4 Connectivity = 4
	// Conn8 is 8-connectivity (all eight surrounding positions).
	Conn8 Connectivity = 8
)

func (c Connectivity) String() string {
	switch c {
	case Conn4:
		return "4-connectivity"
	case Conn8:
		return "8-connectivity"
	}
	return fmt.Sprintf("Connectivity(%d)", int(c))
}

// Valid reports whether c is one of the two supported connectivities.
func (c Connectivity) Valid() bool { return c == Conn4 || c == Conn8 }

// Offsets returns the neighbor offsets (di, dj) of the connectivity, in
// scanning order.
func (c Connectivity) Offsets() [][2]int {
	if c == Conn4 {
		return [][2]int{{-1, 0}, {0, -1}, {0, 1}, {1, 0}}
	}
	return [][2]int{
		{-1, -1}, {-1, 0}, {-1, 1},
		{0, -1}, {0, 1},
		{1, -1}, {1, 0}, {1, 1},
	}
}
