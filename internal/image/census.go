package image

import (
	"sort"

	"parimg/internal/errs"
)

// ComponentStat summarizes one connected component of a labeling: the
// per-object measurements (area, bounding box, centroid, grey level) that
// object-recognition pipelines — the DARPA benchmark task the paper cites —
// compute after labeling.
type ComponentStat struct {
	// Label is the component's label.
	Label uint32
	// Size is the number of pixels.
	Size int
	// MinRow, MinCol, MaxRow, MaxCol are the inclusive bounding box.
	MinRow, MinCol, MaxRow, MaxCol int
	// CentroidRow, CentroidCol are the mean pixel coordinates.
	CentroidRow, CentroidCol float64
	// Grey is the component's grey level under grey-scale semantics; for
	// binary labelings of multi-grey images it is the minimum grey level
	// in the component (an order-independent representative, so the
	// sequential and parallel census agree exactly).
	Grey uint32
}

// Census computes per-component statistics of a labeling over its source
// image, sorted by decreasing size (ties by increasing label). The labeling
// and image must have the same side.
func (l *Labels) Census(im *Image) []ComponentStat {
	stats, err := l.CensusChecked(im)
	if err != nil {
		// Invariant panic: trusted callers pair a labeling with its source
		// image; hostile pairs go through CensusChecked.
		panic("image: " + err.Error())
	}
	return stats
}

// CensusChecked is Census with typed errors instead of panics: the image
// and labeling must each be structurally valid (Check) and share one side.
func (l *Labels) CensusChecked(im *Image) ([]ComponentStat, error) {
	if err := l.Check(); err != nil {
		return nil, err
	}
	if err := im.Check(); err != nil {
		return nil, err
	}
	if im.N != l.N {
		return nil, errs.Geometry("image.Census", l.N, 0,
			"labeling side %d does not match image side %d", l.N, im.N)
	}
	return l.census(im), nil
}

// census is the validated body of Census.
func (l *Labels) census(im *Image) []ComponentStat {
	idx := make(map[uint32]int)
	var stats []ComponentStat
	var sumR, sumC []int64
	for i := 0; i < l.N; i++ {
		for j := 0; j < l.N; j++ {
			lab := l.Lab[i*l.N+j]
			if lab == 0 {
				continue
			}
			k, ok := idx[lab]
			if !ok {
				k = len(stats)
				idx[lab] = k
				stats = append(stats, ComponentStat{
					Label:  lab,
					MinRow: i, MinCol: j, MaxRow: i, MaxCol: j,
					Grey: im.Pix[i*l.N+j],
				})
				sumR = append(sumR, 0)
				sumC = append(sumC, 0)
			}
			s := &stats[k]
			s.Size++
			if g := im.Pix[i*l.N+j]; g < s.Grey {
				s.Grey = g
			}
			if i < s.MinRow {
				s.MinRow = i
			}
			if i > s.MaxRow {
				s.MaxRow = i
			}
			if j < s.MinCol {
				s.MinCol = j
			}
			if j > s.MaxCol {
				s.MaxCol = j
			}
			sumR[k] += int64(i)
			sumC[k] += int64(j)
		}
	}
	for k := range stats {
		stats[k].CentroidRow = float64(sumR[k]) / float64(stats[k].Size)
		stats[k].CentroidCol = float64(sumC[k]) / float64(stats[k].Size)
	}
	sort.Slice(stats, func(a, b int) bool {
		if stats[a].Size != stats[b].Size {
			return stats[a].Size > stats[b].Size
		}
		return stats[a].Label < stats[b].Label
	})
	return stats
}

// Equalize builds the histogram-equalized version of an image from its
// k-bucket histogram (Section 4's motivating application). Background
// (grey 0) is preserved; the foreground grey levels are remapped so their
// cumulative distribution is as flat as the bucketing allows, spreading
// out colors "too clumped together for human visual distinction". A
// malformed image, an empty histogram or a grey level >= k returns a typed
// error.
func Equalize(im *Image, h []int64) (*Image, error) {
	if err := im.Check(); err != nil {
		return nil, err
	}
	k := len(h)
	var fg int64
	for g := 1; g < k; g++ {
		fg += h[g]
	}
	lut := make([]uint32, k)
	var cum int64
	for g := 1; g < k; g++ {
		if fg == 0 {
			lut[g] = uint32(g) // no foreground counted: identity map
			continue
		}
		cum += h[g]
		lut[g] = uint32(1 + (int64(k-2)*cum+fg/2)/fg)
	}
	out := New(im.N)
	for i, v := range im.Pix {
		if int(v) >= k {
			return nil, errs.GreyRange("image.Equalize", k, "grey level %d outside [0,%d)", v, k)
		}
		out.Pix[i] = lut[v]
	}
	return out, nil
}
