// Objects: connected component labeling "is cited as an important object
// recognition problem in the DARPA Image Understanding benchmarks"
// (Section 1). This example runs the full recognition front end on the
// synthetic benchmark scene: grey-scale connected components on a
// simulated 64-processor machine, then a census of the labeled objects —
// area, bounding box, centroid and grey level per component — and prints
// the largest detected objects, the kind of measurement the benchmark's
// "2.5-D mobile" task starts from.
package main

import (
	"context"
	"fmt"
	"log"

	"parimg"
)

func main() {
	im := parimg.DARPAImage()

	sim, err := parimg.NewSimulator(64, parimg.CM5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Label(context.Background(), im, parimg.LabelOptions{
		Conn: parimg.Conn8,
		Mode: parimg.Grey,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labeled %dx%d scene: %d objects in %.3g simulated s on %s\n",
		im.N, im.N, res.Components, res.Report.SimTime, res.Report.Cost.Name)

	// The census itself also runs on the simulated machine.
	census, err := sim.Census(im, res.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel census in %.3g simulated s\n\n", census.Report.SimTime)

	objs, err := parimg.ClassifyObjects(res.Labels, im)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%4s  %-9s  %7s  %-17s  %-14s  %5s\n",
		"#", "class", "pixels", "bbox (r0,c0-r1,c1)", "centroid", "grey")
	for i, o := range objs {
		if i >= 12 {
			fmt.Printf("... and %d smaller objects\n", len(objs)-i)
			break
		}
		fmt.Printf("%4d  %-9v  %7d  (%3d,%3d-%3d,%3d)  (%6.1f,%6.1f)  %5d\n",
			i+1, o.Class, o.Size, o.MinRow, o.MinCol, o.MaxRow, o.MaxCol,
			o.CentroidRow, o.CentroidCol, o.Grey)
	}

	// Class summary, as a recognition pipeline would compute before
	// matching the mobile's parts.
	counts := map[parimg.ObjectClass]int{}
	for _, o := range objs {
		counts[o.Class]++
	}
	fmt.Printf("\n%d objects:", len(objs))
	for _, c := range []parimg.ObjectClass{
		parimg.ClassBar, parimg.ClassRectangle, parimg.ClassDisc,
		parimg.ClassRing, parimg.ClassBlob, parimg.ClassSpeck,
	} {
		if counts[c] > 0 {
			fmt.Printf(" %d %vs", counts[c], c)
		}
	}
	fmt.Println()
}
