package stream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"parimg/internal/image"
	"parimg/internal/seq"
)

// residentTop returns the k largest components of a resident labeling in
// Result.Top's order (size descending, ties by the smaller label) and the
// foreground pixel count.
func residentTop(lab []uint32, k int) ([]Component, int64) {
	sizes := map[uint32]int64{}
	var fg int64
	for _, l := range lab {
		if l != 0 {
			sizes[l]++
			fg++
		}
	}
	all := make([]Component, 0, len(sizes))
	for l, s := range sizes {
		all = append(all, Component{Label: uint64(l), Size: s})
	}
	slices.SortFunc(all, func(a, b Component) int {
		if a.Size != b.Size {
			return int(b.Size - a.Size)
		}
		return int(a.Label) - int(b.Label)
	})
	return all[:min(k, len(all))], fg
}

// TestStreamExhaustiveSmallScope enumerates small images instead of
// sampling them: every binary 4x4 image and every 3x3 image over grey
// levels {0, 1, 2} in grey mode, at both connectivities and at band
// heights 1 and 2, so every band closes, carries or merges components in
// every way a few rows allow. Each run's component count, foreground,
// top-3 labels and sizes, and label PGM must match the resident labeling.
func TestStreamExhaustiveSmallScope(t *testing.T) {
	sweep := func(t *testing.T, rows, cols, levels int, mode seq.Mode) {
		pix := make([]uint32, rows*cols)
		images := 1
		for range pix {
			images *= levels
		}
		for code := 0; code < images; code++ {
			for i, c := 0, code; i < len(pix); i, c = i+1, c/levels {
				pix[i] = uint32(c % levels)
			}
			pgm := encodePGM(pix, rows, cols, 255)
			for _, conn := range []image.Connectivity{image.Conn4, image.Conn8} {
				lab, comps := residentLabels(pix, rows, cols, conn, mode)
				wantPGM := renderDense(lab, rows, cols, comps)
				wantTop, wantFG := residentTop(lab, 3)
				for _, bandRows := range []int{1, 2} {
					var out bytes.Buffer
					res, err := Label(bytes.NewReader(pgm), &out,
						Options{Conn: conn, Mode: mode, BandRows: bandRows, TopK: 3})
					if err == nil && res.Components == int64(comps) && res.Foreground == wantFG &&
						slices.Equal(res.Top, wantTop) && bytes.Equal(out.Bytes(), wantPGM) {
						continue
					}
					name := fmt.Sprintf("%dx%d image %v conn%d band%d", rows, cols, pix, int(conn), bandRows)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					t.Fatalf("%s: %d components, %d foreground, top %v; want %d, %d, %v; label PGM equal: %v",
						name, res.Components, res.Foreground, res.Top, comps, wantFG, wantTop,
						bytes.Equal(out.Bytes(), wantPGM))
				}
			}
		}
	}
	t.Run("binary4x4", func(t *testing.T) { sweep(t, 4, 4, 2, seq.Binary) })
	t.Run("grey3x3", func(t *testing.T) { sweep(t, 3, 3, 3, seq.Grey) })
}
