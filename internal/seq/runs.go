package seq

import (
	"math/bits"

	"parimg/internal/image"
)

// This file implements the run-based (two-pass) connected components
// labeler over a bit-packed binary plane, in the lineage of Gupta et al.'s
// two-pass parallel CCL: rows are scanned word-at-a-time into maximal
// foreground runs, vertically adjacent runs are united in a union-find
// with unite-by-minimum, and a second pass gives each run its root's seed
// label — which a caller that wants pixels paints once per run with span
// writes. Because a run's seed label is the
// global row-major index of its first pixel plus one — and the
// minimum-index pixel of any component necessarily starts a run — the root
// of a merged set carries exactly the label the row-major BFS labeler
// assigns, so the output is pixel-for-pixel identical to LabelBFS in
// Binary mode.
//
// BandLabeler (bandlabel.go) packs a strip, runs both passes over it and
// keeps its run table; this file holds the binary run extraction, the
// binary row unite and the span writes of the paint.

// AppendRuns appends the maximal set-bit runs of one packed row to dst as
// (start, end) half-open column pairs, scanning whole 64-bit words with
// trailing-zero counts instead of per-pixel branches. Bits beyond the
// row's logical width must be zero (the Bitplane invariant), so runs never
// need end-of-row clipping.
func AppendRuns(words []uint64, dst []int32) []int32 {
	var start int32
	carry := false
	for wi, x := range words {
		base := int32(wi) * 64
		if carry {
			// A run is open across the word boundary: it ends at the
			// first zero bit of this word.
			if x == ^uint64(0) {
				continue
			}
			t := int32(bits.TrailingZeros64(^x))
			dst = append(dst, start, base+t)
			carry = false
			x &^= 1<<uint(t) - 1
		}
		for x != 0 {
			s := int32(bits.TrailingZeros64(x))
			ones := int32(bits.TrailingZeros64(^(x >> uint(s))))
			if s+ones == 64 {
				start = base + s
				carry = true
				break
			}
			dst = append(dst, base+s, base+s+ones)
			x &^= (1<<uint(ones) - 1) << uint(s)
		}
	}
	if carry {
		// The run reached the top bit of the last word; by the trailing-
		// zero-bits invariant this happens only when the row width is a
		// multiple of 64, so the end is exactly the row width.
		dst = append(dst, start, int32(len(words))*64)
	}
	return dst
}

// Fill32 sets every element of s to v. Long spans are filled with doubling
// copies (memmove under the hood), short ones with a plain loop — the
// "memset-style" span write of the run labeler's paint pass.
func Fill32(s []uint32, v uint32) {
	if len(s) < 32 {
		for i := range s {
			s[i] = v
		}
		return
	}
	s[0] = v
	for i := 1; i < len(s); i *= 2 {
		copy(s[i:], s[:i])
	}
}

// uniteRows unites each run of the current row [curLo, curHi) with every
// run of the previous row [prevLo, curLo) it is adjacent to, by a two-
// pointer sweep over the two sorted disjoint run lists. Under Conn4 two
// runs are adjacent when their column intervals overlap; under Conn8 the
// window widens by one column on each side (diagonal adjacency). Because
// maximal runs in a row are separated by at least one background column,
// advancing the run with the smaller end never skips an adjacency.
// Returns the number of unites that merged two distinct sets.
func (b *BandLabeler) uniteRows(prevLo, curLo, curHi int, conn image.Connectivity) int {
	var win int32
	if conn == image.Conn8 {
		win = 1
	}
	unites := 0
	p, c := prevLo, curLo
	for p < curLo && c < curHi {
		a0, a1 := b.runs[2*p], b.runs[2*p+1]
		b0, b1 := b.runs[2*c], b.runs[2*c+1]
		if a0 < b1+win && b0 < a1+win {
			if b.unite(int32(p), int32(c)) {
				unites++
			}
		}
		if a1 <= b1 {
			p++
		} else {
			c++
		}
	}
	return unites
}

// zero32 clears s; the compiler lowers this loop to a memclr.
func zero32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}
