// Ising clusters: Section 1 cites "various cluster Monte Carlo algorithms
// for computing the spin models of magnets such as the two-dimensional
// Ising spin model" as an application of connected component labeling. This
// example runs a small Metropolis simulation of the 2-D Ising model at
// temperatures around the critical point T_c = 2/ln(1+sqrt(2)) ~ 2.269,
// then uses grey-scale connected components (spins +1 and -1 as two grey
// levels) to identify the geometric spin clusters — the identification step
// of Swendsen-Wang-style cluster algorithms.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"parimg"
)

const (
	n      = 256
	sweeps = 60
	procs  = 16
)

func main() {
	sim, err := parimg.NewSimulator(procs, parimg.CM5)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("2-D Ising model, %dx%d lattice, %d Metropolis sweeps per point\n", n, n, sweeps)
	fmt.Printf("%6s  %9s  %10s  %14s  %12s\n", "T", "|m|", "clusters", "largest frac", "label time")
	for _, T := range []float64{1.8, 2.1, 2.269, 2.5, 3.0} {
		spins := simulate(T, uint64(T*1000))

		// Spins as grey levels: +1 -> 1, -1 -> 2. Grey-mode
		// components are exactly the like-spin clusters.
		im, err := parimg.NewImage(n)
		if err != nil {
			log.Fatal(err)
		}
		mag := 0
		for i, s := range spins {
			mag += s
			if s > 0 {
				im.Pix[i] = 1
			} else {
				im.Pix[i] = 2
			}
		}
		res, err := sim.Label(context.Background(), im, parimg.LabelOptions{Conn: parimg.Conn4, Mode: parimg.Grey})
		if err != nil {
			log.Fatal(err)
		}
		largest := 0
		for _, s := range res.Labels.ComponentSizes() {
			if s > largest {
				largest = s
			}
		}
		fmt.Printf("%6.3f  %9.4f  %10d  %13.1f%%  %10.4gs\n",
			T, math.Abs(float64(mag))/float64(n*n), res.Components,
			100*float64(largest)/float64(n*n), res.Report.SimTime)
	}
	fmt.Println("\nbelow T_c one spin phase percolates (few clusters, one dominant);")
	fmt.Println("above T_c the lattice fragments into many small clusters")
}

// simulate runs Metropolis sweeps at temperature T and returns the spin
// field (+1/-1), deterministically from seed.
func simulate(T float64, seed uint64) []int {
	spins := make([]int, n*n)
	rng := seed
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545f4914f6cdd1d
	}
	rand01 := func() float64 { return float64(next()>>11) / float64(1<<53) }
	// Cold start (all spins up): below T_c the system stays in the
	// ordered phase; above T_c it disorders within a few sweeps.
	for i := range spins {
		spins[i] = 1
	}
	beta := 1 / T
	// Precomputed acceptance for the five possible energy deltas.
	acc := map[int]float64{}
	for _, d := range []int{-8, -4, 0, 4, 8} {
		acc[d] = math.Exp(-beta * float64(d))
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				idx := i*n + j
				nb := spins[((i+1)%n)*n+j] + spins[((i-1+n)%n)*n+j] +
					spins[i*n+(j+1)%n] + spins[i*n+(j-1+n)%n]
				dE := 2 * spins[idx] * nb
				if dE <= 0 || rand01() < acc[dE] {
					spins[idx] = -spins[idx]
				}
			}
		}
	}
	return spins
}
