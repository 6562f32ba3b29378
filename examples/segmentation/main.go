// Segmentation: the full classical pipeline built from both of the paper's
// primitives — histogram the scene in parallel, pick an automatic (Otsu)
// threshold from the histogram, binarize, label the binary components in
// parallel, and report the segment census. It also demonstrates the
// per-stage time breakdown of the labeling run (initialization, each of
// the log p merge iterations, final update).
package main

import (
	"context"
	"fmt"
	"log"

	"parimg"
)

func main() {
	// A low-contrast scene: the benchmark mobile compressed into a
	// narrow grey band over noise speckle.
	im := parimg.DARPAImage()
	for i, v := range im.Pix {
		if v != 0 {
			im.Pix[i] = 120 + v/8 // band 120..151
		}
	}

	ctx := context.Background()
	sim, err := parimg.NewSimulator(32, parimg.CM5)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: parallel histogram and automatic threshold.
	h, err := sim.Histogram(ctx, im, 256)
	if err != nil {
		log.Fatal(err)
	}
	t := parimg.OtsuThreshold(h.H)
	fmt.Printf("histogram in %.3g simulated s; Otsu threshold = %d\n",
		h.Report.SimTime, t)

	// Stage 2: binarize and label in parallel.
	bin, err := parimg.Threshold(im, uint32(t))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Label(ctx, bin, parimg.LabelOptions{Conn: parimg.Conn8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labeling in %.3g simulated s: %d segments above threshold\n",
		res.Report.SimTime, res.Components)

	// Stage 3: census of the segments.
	stats, err := parimg.Census(res.Labels, im)
	if err != nil {
		log.Fatal(err)
	}
	big := 0
	for _, s := range stats {
		if s.Size >= 64 {
			big++
		}
	}
	fmt.Printf("%d segments of at least 64 pixels; largest is %d pixels at (%.0f,%.0f)\n",
		big, stats[0].Size, stats[0].CentroidRow, stats[0].CentroidCol)

	// The labeling run's stage breakdown: initialization, log p merge
	// iterations, final update.
	fmt.Printf("\nstage breakdown of the labeling run (simulated):\n")
	fmt.Printf("  %-12s %.3g s\n", "init", res.Stages.Init)
	for i, ph := range res.Stages.Merge {
		fmt.Printf("  merge %-6d %.3g s\n", i+1, ph)
	}
	fmt.Printf("  %-12s %.3g s\n", "final", res.Stages.Final)
}
