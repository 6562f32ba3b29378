// Package recognize implements a small shape classifier over labeled
// components — the step the DARPA Image Understanding benchmark's
// "recognition of a 2.5-D mobile" task performs after connected component
// labeling (the paper's Section 1 motivation). Components are classified
// from region features that are cheap to derive from a labeling: bounding
// box, fill ratio, aspect ratio, and the occupancy of the box center.
package recognize

import (
	"fmt"

	"parimg/internal/image"
)

// Class is a coarse shape class.
type Class int

const (
	// Blob is the fallback class.
	Blob Class = iota
	// Bar is an elongated filled shape (the mobile's links and strings).
	Bar
	// Rectangle is a filled box.
	Rectangle
	// Disc is a filled circle.
	Disc
	// Ring is a hollow circular shape.
	Ring
	// Speck is a component too small to classify (under 9 pixels).
	Speck
)

func (c Class) String() string {
	switch c {
	case Bar:
		return "bar"
	case Rectangle:
		return "rectangle"
	case Disc:
		return "disc"
	case Ring:
		return "ring"
	case Speck:
		return "speck"
	}
	return "blob"
}

// Object is a classified component.
type Object struct {
	image.ComponentStat
	Class Class
	// Fill is Size divided by the bounding-box area.
	Fill float64
	// Aspect is the bounding box's long side over its short side.
	Aspect float64
}

func (o Object) String() string {
	return fmt.Sprintf("%v label=%d size=%d fill=%.2f aspect=%.1f",
		o.Class, o.Label, o.Size, o.Fill, o.Aspect)
}

// Classify classifies every component of a labeling over its source image,
// in census order (decreasing size). A malformed image or labeling, or
// sides that do not match, returns the census's typed error.
func Classify(l *image.Labels, im *image.Image) ([]Object, error) {
	stats, err := l.CensusChecked(im)
	if err != nil {
		return nil, err
	}
	out := make([]Object, len(stats))
	for i, s := range stats {
		out[i] = classifyOne(l, s)
	}
	return out, nil
}

func classifyOne(l *image.Labels, s image.ComponentStat) Object {
	h := s.MaxRow - s.MinRow + 1
	w := s.MaxCol - s.MinCol + 1
	fill := float64(s.Size) / float64(h*w)
	aspect := float64(h) / float64(w)
	if aspect < 1 {
		aspect = 1 / aspect
	}
	o := Object{ComponentStat: s, Fill: fill, Aspect: aspect}

	// Center-of-box occupancy distinguishes hollow shapes: take a
	// small probe around the box center and count pixels of this
	// component.
	ci := (s.MinRow + s.MaxRow) / 2
	cj := (s.MinCol + s.MaxCol) / 2
	centerHits := 0
	probe := 0
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			i, j := ci+di, cj+dj
			if i < 0 || i >= l.N || j < 0 || j >= l.N {
				continue
			}
			probe++
			if l.At(i, j) == s.Label {
				centerHits++
			}
		}
	}
	centerFilled := probe > 0 && centerHits*2 > probe

	switch {
	case s.Size < 9:
		o.Class = Speck
	case aspect >= 4 && fill >= 0.6:
		o.Class = Bar
	case fill >= 0.92 && aspect < 4:
		o.Class = Rectangle
	case fill >= 0.65 && aspect < 1.4 && centerFilled:
		o.Class = Disc
	case fill < 0.65 && aspect < 1.4 && !centerFilled:
		o.Class = Ring
	default:
		o.Class = Blob
	}
	return o
}

// Summary counts objects per class.
func Summary(objs []Object) map[Class]int {
	m := make(map[Class]int)
	for _, o := range objs {
		m[o.Class]++
	}
	return m
}
