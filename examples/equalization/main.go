// Equalization: Section 4 of the paper motivates histogramming with
// histogram normalization (equalization), "a technique that flattens the
// histogram and improves the contrast of an image". This example computes
// the histogram of the synthetic DARPA benchmark scene with the parallel
// algorithm, builds the classic cumulative-distribution equalization map,
// applies it, and writes before/after PGM files. Re-histogramming the
// output shows the flattened distribution.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"parimg"
)

func main() {
	const k = 256
	// A low-contrast version of the benchmark scene: all foreground
	// greys squeezed into the band 96..159, the kind of "clumped
	// together" histogram Section 4 says equalization spreads out.
	im := parimg.DARPAImage()
	for i, v := range im.Pix {
		if v != 0 {
			im.Pix[i] = 96 + v/4
		}
	}

	ctx := context.Background()
	sim, err := parimg.NewSimulator(32, parimg.SP2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Histogram(ctx, im, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("histogrammed %dx%d scene in %.3g simulated s on %s\n",
		im.N, im.N, res.Report.SimTime, res.Report.Cost.Name)

	// Equalize over the foreground greys (0 stays background, as
	// everywhere in the paper).
	var fg int64
	for g := 1; g < k; g++ {
		fg += res.H[g]
	}
	out, err := parimg.Equalize(im, res.H)
	if err != nil {
		log.Fatal(err)
	}

	// Re-histogram the equalized image (parallel again) and compare
	// spread: the occupied range should stretch across the full scale.
	res2, err := sim.Histogram(ctx, out, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("foreground grey span before: %d..%d, after: %d..%d\n",
		lo(res.H), hi(res.H), lo(res2.H), hi(res2.H))
	fmt.Printf("max CDF distance from a flat histogram: before %.3f, after %.3f\n",
		cdfDistance(res.H, fg, k), cdfDistance(res2.H, fg, k))

	for _, f := range []struct {
		name string
		im   *parimg.Image
	}{{"darpa_before.pgm", im}, {"darpa_after.pgm", out}} {
		w, err := os.Create(f.name)
		if err != nil {
			log.Fatal(err)
		}
		if err := parimg.WritePGM(w, f.im, 255); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", f.name)
	}
}

func lo(h []int64) int {
	for g := 1; g < len(h); g++ {
		if h[g] > 0 {
			return g
		}
	}
	return -1
}

func hi(h []int64) int {
	for g := len(h) - 1; g >= 1; g-- {
		if h[g] > 0 {
			return g
		}
	}
	return -1
}

// cdfDistance is the Kolmogorov-Smirnov style distance between the
// foreground grey-level CDF and the uniform CDF; equalization drives it
// toward zero.
func cdfDistance(h []int64, fg int64, k int) float64 {
	var cum int64
	var worst float64
	for g := 1; g < k; g++ {
		cum += h[g]
		got := float64(cum) / float64(fg)
		want := float64(g) / float64(k-1)
		if d := got - want; d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
	}
	return worst
}
