// Command imgcc labels the connected components of an image and prints the
// component census. Three backends are available: the BDM simulator
// (-backend sim, the default, which also reports modeled execution costs),
// the host-parallel engine (-backend par, real goroutines, real wall
// clock), and the sequential baseline (-backend seq).
//
// Examples:
//
//	imgcc -pattern concentric-circles -n 512 -machine cm5 -p 32
//	imgcc -darpa -grey -machine sp2 -p 64
//	imgcc -random 0.593 -n 1024 -conn 4
//	imgcc -pattern dual-spiral -n 1024 -backend par
//	imgcc -stream -in huge.pgm -band-rows 4096 -out labels.pgm
//
// Every failure — a malformed flag, an unreadable or hostile PGM file, an
// invalid geometry — exits with code 1 and a one-line "imgcc: ..." message
// on stderr, never a panic trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"parimg"
	"parimg/internal/cli"
)

func main() { os.Exit(cli.Run("imgcc", run)) }

func run() error { return runArgs(flag.CommandLine, os.Args[1:]) }

// streamOnly names the flags only the -stream path reads; without -stream
// they are rejected rather than silently dropped.
var streamOnly = []string{"out", "census-json", "checkpoint", "checkpoint-every", "resume", "band-rows"}

// runArgs registers imgcc's flags on fs, parses args and runs the command.
func runArgs(fs *flag.FlagSet, args []string) error {
	var (
		patternName = cli.PatternFlag(fs)
		random      = cli.RandomFlag(fs)
		darpa       = cli.DarpaFlag(fs)
		inFile      = cli.InFlag(fs)
		n           = cli.NFlag(fs)
		p           = cli.PFlag(fs)
		machineName = cli.MachineFlag(fs)
		conn        = fs.Int("conn", 8, "connectivity: 4 or 8")
		grey        = fs.Bool("grey", false, "grey-scale components (like-colored pixels connect)")
		seed        = cli.SeedFlag(fs)
		top         = fs.Int("top", 10, "print the sizes of the largest components")
		direct      = fs.Bool("direct-dist", false, "use the unimproved direct change distribution")
		noShadow    = fs.Bool("no-shadow", false, "disable shadow managers")
		fullRelabel = fs.Bool("full-relabel", false, "relabel whole tiles every merge (disable limited updating)")
		compare     = fs.Bool("compare", false, "run all three parallel algorithms and compare")
		backend     = cli.BackendFlag(fs)
		workers     = cli.WorkersFlag(fs)
		metricsPath = cli.MetricsFlag(fs)
		timeout     = cli.TimeoutFlag(fs)
		streaming   = cli.StreamFlag(fs)
		bandRows    = cli.BandRowsFlag(fs)
		outFile     = cli.OutFlag(fs)
		checkpoint  = cli.CheckpointFlag(fs)
		ckptEvery   = cli.CheckpointEveryFlag(fs)
		resume      = cli.ResumeFlag(fs)
		censusJSON  = cli.CensusJSONFlag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *streaming {
		return runStream(streamConfig{
			inFile: *inFile, outFile: *outFile, bandRows: *bandRows,
			conn: *conn, top: *top, grey: *grey,
			metricsPath: *metricsPath, timeout: *timeout,
			checkpoint: *checkpoint, checkpointEvery: *ckptEvery,
			resume: *resume, censusJSON: *censusJSON,
		})
	}

	var stray string
	fs.Visit(func(f *flag.Flag) {
		if stray == "" && slices.Contains(streamOnly, f.Name) {
			stray = f.Name
		}
	})
	if stray != "" {
		return fmt.Errorf("-%s applies only to -stream; add -stream or drop -%s", stray, stray)
	}

	im, err := loadImage(*patternName, *random, *darpa, *inFile, *n, *seed)
	if err != nil {
		return err
	}
	ctx, cancel := cli.TimeoutContext(*timeout)
	defer cancel()
	opt0 := parimg.LabelOptions{
		Conn:               parimg.Connectivity(*conn),
		DirectDistribution: *direct,
		NoShadowManager:    *noShadow,
		FullRelabel:        *fullRelabel,
	}
	if *grey {
		opt0.Mode = parimg.Grey
	}
	switch *backend {
	case "sim":
		// fall through to the simulator below
	case "par", "seq":
		return runHost(ctx, *backend, im, opt0, *workers, *top,
			*metricsPath, cli.ImageName(*patternName, *darpa, *inFile))
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
	opt := opt0
	if *compare {
		return compareAlgorithms(ctx, sim, im, opt, spec.Name, *p)
	}
	rec := parimg.NewMetricsRecorder()
	if *metricsPath != "" {
		sim.SetObserver(rec)
	}
	res, err := sim.Label(ctx, im, opt)
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		m := rec.Snapshot()
		m.Command, m.Backend, m.Machine = "imgcc", "sim", spec.Name
		m.Procs, m.N = *p, im.N
		m.Image = cli.ImageName(*patternName, *darpa, *inFile)
		m.SimTimeS = res.Report.SimTime
		m.CompTimeS = res.Report.CompTime
		m.CommTimeS = res.Report.CommTime
		m.TotalNS = res.Report.Wall.Nanoseconds()
		if err := cli.WriteMetrics(*metricsPath, m); err != nil {
			return err
		}
	}

	fmt.Printf("%s, p=%d, %dx%d image, %v, %v mode\n",
		spec.Name, *p, im.N, im.N, opt.Conn, opt.Mode)
	fmt.Printf("%d connected components in %d merge phases\n", res.Components, res.MergePhases)
	printTop(res.Labels, *top)
	r := res.Report
	fmt.Printf("simulated time %.6g s (computation %.6g s, communication %.6g s)\n",
		r.SimTime, r.CompTime, r.CommTime)
	fmt.Printf("work per pixel %.4g us, %d words moved, host wall time %v\n",
		r.WorkPerPixel(im.N*im.N)*1e6, r.Words, r.Wall)
	return nil
}

// runHost labels on the host itself — the parallel engine or the
// sequential baseline — and reports real wall-clock time instead of the
// simulator's modeled costs. The labels buffer is allocated before the
// timed region, so the wall time (and metrics TotalNS) covers exactly the
// labeling work the recorded phases decompose.
func runHost(ctx context.Context, backend string, im *parimg.Image, opt parimg.LabelOptions,
	workers, top int, metricsPath, imageName string) error {
	labels, err := parimg.NewLabels(im.N)
	if err != nil {
		return err
	}
	rec := parimg.NewMetricsRecorder()
	var elapsed time.Duration
	if backend == "par" {
		workers = cli.Workers(workers)
		eng := parimg.NewParallelEngine(workers)
		if metricsPath != "" {
			eng.SetObserver(rec)
		}
		start := time.Now()
		comps, err := eng.LabelIntoContext(ctx, im, connOf(opt), opt.Mode, labels)
		elapsed = time.Since(start)
		if err != nil {
			return err
		}
		fmt.Printf("host-parallel, workers=%d (GOMAXPROCS=%d), %dx%d image, %v, %v mode\n",
			workers, runtime.GOMAXPROCS(0), im.N, im.N, connOf(opt), opt.Mode)
		fmt.Printf("%d connected components, wall time %v\n", comps, elapsed)
	} else {
		start := time.Now()
		labels, err = parimg.LabelSequential(im, connOf(opt), opt.Mode)
		elapsed = time.Since(start)
		if err != nil {
			return err
		}
		fmt.Printf("sequential baseline, %dx%d image, %v, %v mode\n", im.N, im.N, connOf(opt), opt.Mode)
		fmt.Printf("%d connected components, wall time %v\n", labels.Components(), elapsed)
	}
	printTop(labels, top)
	if metricsPath != "" {
		m := rec.Snapshot()
		m.Command, m.Backend = "imgcc", backend
		if backend == "par" {
			m.Workers = workers
		}
		m.Image, m.N = imageName, im.N
		m.TotalNS = elapsed.Nanoseconds()
		if err := cli.WriteMetrics(metricsPath, m); err != nil {
			return err
		}
	}
	return nil
}

func connOf(opt parimg.LabelOptions) parimg.Connectivity {
	if opt.Conn == 0 {
		return parimg.Conn8
	}
	return opt.Conn
}

// printTop prints the sizes of the largest components, biggest first.
func printTop(labels *parimg.Labels, top int) {
	if top <= 0 {
		return
	}
	sizes := labels.ComponentSizes()
	type comp struct {
		label uint32
		size  int
	}
	all := make([]comp, 0, len(sizes))
	for l, s := range sizes {
		all = append(all, comp{l, s})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].size != all[b].size {
			return all[a].size > all[b].size
		}
		return all[a].label < all[b].label
	})
	if len(all) > top {
		all = all[:top]
	}
	for i, c := range all {
		fmt.Printf("  #%-2d label %-8d %d pixels\n", i+1, c.label, c.size)
	}
}

// compareAlgorithms runs the paper's merge algorithm and the two baselines
// (label diffusion and pointer jumping) on the same input, verifies they
// agree, and prints a comparison table.
func compareAlgorithms(ctx context.Context, sim *parimg.Simulator, im *parimg.Image, opt parimg.LabelOptions, machineName string, p int) error {
	type row struct {
		name string
		run  func() (*parimg.CCResult, error)
	}
	rows := []row{
		{"merge (this paper)", func() (*parimg.CCResult, error) { return sim.Label(ctx, im, opt) }},
		{"label diffusion", func() (*parimg.CCResult, error) { return sim.LabelByPropagation(im, opt) }},
		{"pointer jumping", func() (*parimg.CCResult, error) { return sim.LabelByPointerJumping(im, opt) }},
	}
	fmt.Printf("%s, p=%d, %dx%d image, %v, %v mode\n\n",
		machineName, p, im.N, im.N, opt.Conn, opt.Mode)
	fmt.Printf("%-20s  %10s  %8s  %12s  %10s\n", "algorithm", "sim time", "rounds", "words moved", "components")
	var first *parimg.CCResult
	for _, r := range rows {
		res, err := r.run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if first == nil {
			first = res
		} else {
			for i := range first.Labels.Lab {
				if first.Labels.Lab[i] != res.Labels.Lab[i] {
					return fmt.Errorf("%s disagrees with the merge algorithm at pixel %d", r.name, i)
				}
			}
		}
		fmt.Printf("%-20s  %9.4gs  %8d  %12d  %10d\n",
			r.name, res.Report.SimTime, res.MergePhases, res.Report.Words, res.Components)
	}
	fmt.Println("\nall three algorithms produced identical labelings")
	return nil
}

func loadImage(pattern string, density float64, darpa bool, inFile string, n int, seed uint64) (*parimg.Image, error) {
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
	default:
		return parimg.RandomBinary(n, 0.5, seed)
	}
}
