// Command imghist histograms an image and prints the histogram. Three
// backends are available: the BDM simulator (-backend sim, the default,
// which also reports modeled execution costs), the host-parallel engine
// (-backend par, real goroutines, real wall clock), and the sequential
// baseline (-backend seq).
//
// The image is either a generated test image (-pattern, -random, -darpa) or
// a PGM file (-in). Examples:
//
//	imghist -pattern dual-spiral -n 512 -k 2 -machine cm5 -p 32
//	imghist -darpa -k 256 -machine sp2 -p 64
//	imghist -in scene.pgm -k 256
//	imghist -darpa -k 256 -backend par
//
// Every failure — a malformed flag, an unreadable or hostile PGM file, a
// grey level outside [0, k) — exits with code 1 and a one-line
// "imghist: ..." message on stderr, never a panic trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"parimg"
	"parimg/internal/cli"
)

func main() { os.Exit(cli.Run("imghist", run)) }

func run() error {
	var (
		patternName = cli.PatternFlag(flag.CommandLine)
		random      = cli.RandomFlag(flag.CommandLine)
		randomGrey  = flag.Bool("random-grey", false, "random grey image with k levels")
		darpa       = cli.DarpaFlag(flag.CommandLine)
		inFile      = cli.InFlag(flag.CommandLine)
		n           = cli.NFlag(flag.CommandLine)
		k           = flag.Int("k", 256, "number of grey levels (power of two)")
		p           = cli.PFlag(flag.CommandLine)
		machineName = cli.MachineFlag(flag.CommandLine)
		seed        = cli.SeedFlag(flag.CommandLine)
		quiet       = flag.Bool("quiet", false, "print only the timing summary")
		backend     = cli.BackendFlag(flag.CommandLine)
		workers     = cli.WorkersFlag(flag.CommandLine)
		metricsPath = cli.MetricsFlag(flag.CommandLine)
		timeout     = cli.TimeoutFlag(flag.CommandLine)
	)
	flag.Parse()

	im, err := loadImage(*patternName, *random, *randomGrey, *darpa, *inFile, *n, *k, *seed)
	if err != nil {
		return err
	}
	ctx, cancel := cli.TimeoutContext(*timeout)
	defer cancel()
	imageName := cli.ImageName(*patternName, *darpa, *inFile)
	switch *backend {
	case "sim":
		// fall through to the simulator below
	case "par", "seq":
		return runHost(ctx, *backend, im, *k, *workers, *quiet, *metricsPath, imageName)
	default:
		return fmt.Errorf("unknown backend %q (want sim, par or seq)", *backend)
	}
	spec, err := parimg.MachineByName(*machineName)
	if err != nil {
		return err
	}
	sim, err := parimg.NewSimulator(*p, spec)
	if err != nil {
		return err
	}
	rec := parimg.NewMetricsRecorder()
	if *metricsPath != "" {
		sim.SetObserver(rec)
	}
	res, err := sim.Histogram(ctx, im, *k)
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		m := rec.Snapshot()
		m.Command, m.Backend, m.Machine = "imghist", "sim", spec.Name
		m.Procs, m.Image, m.N, m.K = *p, imageName, im.N, *k
		m.SimTimeS = res.Report.SimTime
		m.CompTimeS = res.Report.CompTime
		m.CommTimeS = res.Report.CommTime
		m.TotalNS = res.Report.Wall.Nanoseconds()
		if err := cli.WriteMetrics(*metricsPath, m); err != nil {
			return err
		}
	}

	if !*quiet {
		for g, c := range res.H {
			if c != 0 {
				fmt.Printf("H[%3d] = %d\n", g, c)
			}
		}
	}
	r := res.Report
	fmt.Printf("%s, p=%d, %dx%d image, k=%d\n", spec.Name, *p, im.N, im.N, *k)
	fmt.Printf("simulated time %.6g s (computation %.6g s, communication %.6g s)\n",
		r.SimTime, r.CompTime, r.CommTime)
	fmt.Printf("work per pixel %.4g ns, %d words moved, host wall time %v\n",
		r.WorkPerPixel(im.N*im.N)*1e9, r.Words, r.Wall)
	return nil
}

// runHost histograms on the host itself — the parallel engine or the
// sequential baseline — and reports real wall-clock time instead of the
// simulator's modeled costs.
func runHost(ctx context.Context, backend string, im *parimg.Image, k, workers int, quiet bool,
	metricsPath, imageName string) error {
	var (
		h   []int64
		err error
		rec = parimg.NewMetricsRecorder()
	)
	start := time.Now()
	if backend == "par" {
		workers = cli.Workers(workers)
		eng := parimg.NewParallelEngine(workers)
		if metricsPath != "" {
			eng.SetObserver(rec)
		}
		h, err = eng.HistogramContext(ctx, im, k)
	} else {
		h, err = parimg.HistogramSequential(im, k)
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !quiet {
		for g, c := range h {
			if c != 0 {
				fmt.Printf("H[%3d] = %d\n", g, c)
			}
		}
	}
	if backend == "par" {
		fmt.Printf("host-parallel, workers=%d (GOMAXPROCS=%d), %dx%d image, k=%d\n",
			workers, runtime.GOMAXPROCS(0), im.N, im.N, k)
	} else {
		fmt.Printf("sequential baseline, %dx%d image, k=%d\n", im.N, im.N, k)
	}
	fmt.Printf("wall time %v\n", elapsed)
	if metricsPath != "" {
		m := rec.Snapshot()
		m.Command, m.Backend = "imghist", backend
		if backend == "par" {
			m.Workers = workers
		}
		m.Image, m.N, m.K = imageName, im.N, k
		m.TotalNS = elapsed.Nanoseconds()
		if err := cli.WriteMetrics(metricsPath, m); err != nil {
			return err
		}
	}
	return nil
}

func loadImage(pattern string, density float64, grey, darpa bool, inFile string, n, k int, seed uint64) (*parimg.Image, error) {
	switch {
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parimg.ReadPGM(f)
	case darpa:
		return parimg.DARPAImage(), nil
	case pattern != "":
		for _, id := range parimg.AllPatterns() {
			if id.String() == pattern {
				return parimg.GeneratePattern(id, n)
			}
		}
		return nil, fmt.Errorf("unknown pattern %q (try dual-spiral, filled-disc, cross, ...)", pattern)
	case density >= 0:
		return parimg.RandomBinary(n, density, seed)
	case grey:
		return parimg.RandomGrey(n, k, seed)
	default:
		return parimg.RandomGrey(n, k, seed)
	}
}
