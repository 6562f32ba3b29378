package seq

import (
	"parimg/internal/image"
)

// This file generalizes the run extraction and row unite of runs.go from
// binary foreground runs to maximal equal-grey-level runs, the
// representation Gupta et al.'s two-pass parallel CCL and Chen et al.'s
// coarse-to-fine extraction use for grey imagery: a run is a maximal
// horizontal span of pixels sharing one nonzero grey level, vertically
// adjacent runs are united only when their grey levels match, and painting
// is unchanged (a run is still uniformly labeled). Seed labels remain the
// global row-major index of the run's first pixel plus one, and the
// minimum-index pixel of any grey component fragment necessarily starts a
// run (its left neighbor is background or a different grey level — either
// way a run boundary), so unite-by-minimum again reproduces seq.LabelBFS
// in Grey mode pixel for pixel.

// splat8 has the low bit of every byte set; multiplying a byte value by it
// broadcasts the value into all eight byte lanes of a word.
const splat8 = 0x0101010101010101

// AppendGreyRuns appends the maximal equal-valued nonzero-byte runs of one
// byte-packed row (eight pixels per word, zero-padded past the row width —
// the Byteplane invariant) to dst as (start, end) half-open column pairs,
// with each run's grey level appended to vals. The coarse scan settles
// whole words in one comparison — a word equal to the open run's value
// splatted into every byte extends the run by eight pixels, an all-zero
// word skips eight background pixels — and only words containing a
// boundary pay the per-byte fine scan, so uniform imagery runs at word
// speed (Chen et al.'s coarse-to-fine strategy on an 8-pixel block).
func AppendGreyRuns(words []uint64, dst []int32, vals []uint32) ([]int32, []uint32) {
	var start int32
	var cur uint64 // open run's value splatted into every byte
	var curb byte  // open run's value
	open := false
	for wi, x := range words {
		if open {
			if x == cur {
				continue // run extends across the whole word
			}
		} else if x == 0 {
			continue // eight background pixels
		}
		base := int32(wi) * 8
		for k := int32(0); k < 8; k++ {
			b := byte(x >> (uint(k) * 8))
			if open {
				if b == curb {
					continue
				}
				dst = append(dst, start, base+k)
				vals = append(vals, uint32(curb))
				open = false
			}
			if b != 0 {
				start = base + k
				curb = b
				cur = uint64(b) * splat8
				open = true
			}
		}
	}
	if open {
		// The run reached the last byte of the last word; by the zero-
		// padding invariant this happens only when the row width is a
		// multiple of 8, so the end is exactly the row width.
		dst = append(dst, start, int32(len(words))*8)
		vals = append(vals, uint32(curb))
	}
	return dst, vals
}

// AppendGreyRunsPix is AppendGreyRuns over a raw uint32 pixel row, the
// full-width path for strips whose grey levels exceed a byte (the
// byteplane would truncate them). One load and compare per pixel instead
// of one per word, but the run representation and everything downstream
// are identical.
func AppendGreyRunsPix(row []uint32, dst []int32, vals []uint32) ([]int32, []uint32) {
	var start int32
	var cur uint32
	open := false
	for j, v := range row {
		if open {
			if v == cur {
				continue
			}
			dst = append(dst, start, int32(j))
			vals = append(vals, cur)
			open = false
		}
		if v != 0 {
			start = int32(j)
			cur = v
			open = true
		}
	}
	if open {
		dst = append(dst, start, int32(len(row)))
		vals = append(vals, cur)
	}
	return dst, vals
}

// uniteRowsGrey unites each run of the current row [curLo, curHi) with
// every run of the previous row [prevLo, curLo) that is both adjacent
// under the connectivity and of the same grey level. Unlike the binary
// sweep of uniteRows, maximal grey runs in a row may touch (a grey-level
// change is a run boundary with no background gap), so under Conn8 one
// current run can be diagonally adjacent to a previous run on either side
// of a touching pair — the simple advance-smaller-end two-pointer sweep
// would skip one of them. Each current run therefore rescans forward from
// a skip pointer: prev runs ending at or before b0-win can never matter
// again (current starts are nondecreasing), and the forward scan stops at
// the first prev run starting at or past b1+win. Every (prev, cur) pair
// examined is a genuine adjacency candidate, so the sweep stays linear in
// runs plus adjacent pairs. Returns the number of unites that merged two
// distinct sets.
func (b *BandLabeler) uniteRowsGrey(prevLo, curLo, curHi int, conn image.Connectivity) int {
	var win int32
	if conn == image.Conn8 {
		win = 1
	}
	unites := 0
	p := prevLo
	for c := curLo; c < curHi; c++ {
		b0, b1 := b.runs[2*c], b.runs[2*c+1]
		for p < curLo && b.runs[2*p+1]+win <= b0 {
			p++
		}
		for q := p; q < curLo && b.runs[2*q] < b1+win; q++ {
			if b.vals[q] == b.vals[c] && b.unite(int32(q), int32(c)) {
				unites++
			}
		}
	}
	return unites
}
