// Quickstart: histogram an image and label its connected components on a
// simulated 32-processor CM-5, then check the results against the
// sequential baselines. This is the smallest end-to-end use of the public
// API.
package main

import (
	"context"
	"fmt"
	"log"

	"parimg"
)

func main() {
	// One of the paper's nine scalable test patterns: concentric
	// circles with thickness (Figure 1, image 7).
	im, err := parimg.GeneratePattern(parimg.ConcentricCircles, 512)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	sim, err := parimg.NewSimulator(32, parimg.CM5)
	if err != nil {
		log.Fatal(err)
	}

	// Histogramming (Section 4 of the paper).
	h, err := sim.Histogram(ctx, im, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("histogram: %d background, %d foreground pixels (of %d)\n",
		h.H[0], h.H[1], im.N*im.N)
	fmt.Printf("  simulated %.3g s on %s (comp %.3g s, comm %.3g s)\n",
		h.Report.SimTime, h.Report.Cost.Name, h.Report.CompTime, h.Report.CommTime)

	// Connected components (Section 5).
	res, err := sim.Label(ctx, im, parimg.LabelOptions{Conn: parimg.Conn8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected components: %d rings found in %d merge phases\n",
		res.Components, res.MergePhases)
	fmt.Printf("  simulated %.3g s (comp %.3g s, comm %.3g s)\n",
		res.Report.SimTime, res.Report.CompTime, res.Report.CommTime)

	// The parallel labeling is canonical: it equals the sequential
	// row-major BFS labeling exactly.
	want, err := parimg.LabelSequential(im, parimg.Conn8, parimg.Binary)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want.Lab {
		if res.Labels.Lab[i] != want.Lab[i] {
			log.Fatalf("parallel and sequential labels differ at pixel %d", i)
		}
	}
	fmt.Println("verified: parallel labeling identical to the sequential baseline")
}
