// Percolation: the paper's Section 1 motivates connected components with
// computational physics problems such as percolation. This example runs a
// site-percolation study: for occupation probabilities around the 2-D site
// percolation threshold (p_c ~ 0.5927 under 4-connectivity), it labels
// random lattices with the parallel algorithm and reports whether a
// spanning cluster (touching both the top and bottom row) exists, the
// largest cluster fraction, and the cluster count.
package main

import (
	"context"
	"fmt"
	"log"

	"parimg"
)

func main() {
	const (
		n     = 512
		procs = 16
		runs  = 3
	)
	sim, err := parimg.NewSimulator(procs, parimg.CM5)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("site percolation on a %dx%d lattice, 4-connectivity, %d runs per point\n", n, n, runs)
	fmt.Printf("%8s  %10s  %14s  %10s  %12s\n", "density", "clusters", "largest frac", "spanning", "sim time")
	for _, density := range []float64{0.50, 0.55, 0.58, 0.5927, 0.61, 0.65, 0.70} {
		var clusters, spanning int
		var largestFrac, simTime float64
		for run := 0; run < runs; run++ {
			im, err := parimg.RandomBinary(n, density, uint64(run)*7919+uint64(density*1e4))
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.Label(context.Background(), im, parimg.LabelOptions{Conn: parimg.Conn4})
			if err != nil {
				log.Fatal(err)
			}
			clusters += res.Components
			simTime += res.Report.SimTime

			sizes := res.Labels.ComponentSizes()
			occupied := 0
			largest := 0
			for _, s := range sizes {
				occupied += s
				if s > largest {
					largest = s
				}
			}
			if occupied > 0 {
				largestFrac += float64(largest) / float64(occupied)
			}
			if spans(res.Labels) {
				spanning++
			}
		}
		fmt.Printf("%8.4f  %10.1f  %13.1f%%  %6d/%-3d  %10.4gs\n",
			density, float64(clusters)/runs, 100*largestFrac/runs, spanning, runs, simTime/runs)
	}
	fmt.Println("\nbelow p_c~0.593 no run spans; above it the largest cluster dominates")
}

// spans reports whether some cluster touches both the top and bottom rows.
func spans(l *parimg.Labels) bool {
	top := map[uint32]bool{}
	for j := 0; j < l.N; j++ {
		if v := l.At(0, j); v != 0 {
			top[v] = true
		}
	}
	for j := 0; j < l.N; j++ {
		if v := l.At(l.N-1, j); v != 0 && top[v] {
			return true
		}
	}
	return false
}
