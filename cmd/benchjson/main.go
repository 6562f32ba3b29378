// Command benchjson measures the wall-clock labeling throughput of every
// backend x workers x mode combination — the sequential BFS baseline and
// the host-parallel run engine at one worker and at a multi-worker count,
// in binary and in grey connectivity — and writes the matrix as JSON
// (default BENCH_runs.json) for tracking across commits.
//
// The multi-worker count is GOMAXPROCS when that is more than one, and an
// oversubscribed 4 otherwise: strip seams only exist with at least two
// strips, so a 1-CPU container still measures the border merge
// (concurrency effects are then simulated by the scheduler, but the
// per-phase algorithmic costs are real).
//
// Every run covers all nine Figure 1 catalog patterns plus the synthetic
// DARPA scene, so the report reflects worst-case inputs (single-pixel-wide
// features, dense small components) as well as spiral-friendly ones; each
// input is labeled in both modes, so the DARPA scene — the paper's
// flagship grey workload — exercises the grey run extractor over the byte
// plane, not just binary foreground runs. Each measurement labels its
// image repeatedly for at least -mintime and keeps the fastest iteration,
// the usual go-bench floor of scheduling noise. Every configuration's
// output is verified pixel-for-pixel against the sequential reference.
// GOMAXPROCS and NumCPU are recorded so a reader can tell a 1-core
// container from a real multicore host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"parimg"
	"parimg/internal/benchfmt"
	"parimg/internal/cli"
	"parimg/internal/errs"
)

func main() { os.Exit(cli.Run("benchjson", run)) }

func run() error {
	var (
		out         = flag.String("o", "BENCH_runs.json", "output file")
		workers     = cli.WorkersFlag(flag.CommandLine)
		minTime     = flag.Duration("mintime", 200*time.Millisecond, "minimum measuring time per configuration")
		metricsPath = cli.MetricsFlag(flag.CommandLine)
		timeout     = cli.TimeoutFlag(flag.CommandLine)
	)
	flag.Parse()

	ctx, cancel := cli.TimeoutContext(*timeout)
	defer cancel()
	start := time.Now()

	maxW := cli.Workers(*workers)
	multiW := maxW
	if multiW < 2 {
		multiW = 4
	}
	workerCounts := []int{1, multiW}

	rep := benchfmt.Report{
		Benchmark:  "label backend x workers x mode matrix, nine catalog patterns + DARPA, binary and grey",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Conn:       parimg.Conn8.String(),
		Modes:      parimg.Binary.String() + "," + parimg.Grey.String(),
		MinTimeMS:  minTime.Milliseconds(),
	}

	type input struct {
		name string
		im   *parimg.Image
	}
	var inputs []input
	for _, n := range []int{512, 1024} {
		for _, id := range parimg.AllPatterns() {
			inputs = append(inputs, input{id.String(), parimg.GeneratePattern(id, n)})
		}
	}
	inputs = append(inputs, input{"darpa", parimg.DARPAImage()})

	// With -metrics, every host-parallel configuration gets one extra
	// instrumented labeling (outside the timed loop) and the per-phase
	// documents are written as one JSON array.
	var metricsDocs []*parimg.Metrics
	rec := parimg.NewMetricsRecorder()

	for _, in := range inputs {
		for _, mode := range []parimg.Mode{parimg.Binary, parimg.Grey} {
			// The sequential baseline and the timed loops below run minutes
			// in total; the per-input check keeps -timeout honest between
			// configurations, and LabelIntoContext enforces it inside them.
			if err := ctx.Err(); err != nil {
				return errs.FromContext("benchjson", time.Since(start), err)
			}
			n := in.im.N
			pix := float64(n * n)
			want := parimg.LabelSequential(in.im, parimg.Conn8, mode)

			record := func(backend string, w int, ns int64, got *parimg.Labels, comps int) {
				agree := true
				for i := range want.Lab {
					if want.Lab[i] != got.Lab[i] {
						agree = false
						break
					}
				}
				rep.Rows = append(rep.Rows, benchfmt.Row{
					Pattern: in.name, N: n, Backend: backend,
					Mode: mode.String(), Workers: w,
					NS: ns, MPixPerS: pix / (float64(ns) / 1e9) / 1e6,
					Components: comps, LabelsAgreed: agree,
				})
				fmt.Printf("%-18s n=%-5d %-6s %-3s w=%-2d  %10v  %8.1f MPix/s  identical=%v\n",
					in.name, n, mode, backend, w, time.Duration(ns), pix/(float64(ns)/1e9)/1e6, agree)
			}

			// Sequential baseline (backend seq, the paper's Section 5.1 BFS).
			{
				var l *parimg.Labels
				ns := best(*minTime, func() { l = parimg.LabelSequential(in.im, parimg.Conn8, mode) })
				record("seq", 1, ns, l, l.Components())
			}

			// Host-parallel run engine at each worker count.
			for _, w := range workerCounts {
				eng := parimg.NewParallelEngine(w)
				got := parimg.NewLabels(n)
				var comps int
				var runErr error
				ns := best(*minTime, func() {
					if runErr != nil {
						return
					}
					comps, runErr = eng.LabelIntoContext(ctx, in.im, parimg.Conn8, mode, got)
				})
				if runErr != nil {
					return runErr
				}
				record("par", w, ns, got, comps)
				if *metricsPath != "" {
					rec.Reset()
					eng.SetObserver(rec)
					t0 := time.Now()
					if _, err := eng.LabelIntoContext(ctx, in.im, parimg.Conn8, mode, got); err != nil {
						return err
					}
					instrNS := time.Since(t0).Nanoseconds()
					eng.SetObserver(nil)
					m := rec.Snapshot()
					m.Command, m.Backend = "benchjson", "par"
					m.Workers, m.Image, m.N = w, in.name, n
					m.TotalNS = instrNS
					metricsDocs = append(metricsDocs, m)
				}
			}
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := cli.WriteMetricsList(*metricsPath, metricsDocs); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d per-configuration metrics documents)\n", *metricsPath, len(metricsDocs))
	}
	fmt.Printf("wrote %s (gomaxprocs=%d, numcpu=%d, %d cells)\n",
		*out, rep.GoMaxProcs, rep.NumCPU, len(rep.Rows))
	return nil
}

// best runs fn repeatedly for at least minTime and returns the fastest
// single-iteration wall time in nanoseconds.
func best(minTime time.Duration, fn func()) int64 {
	var fastest int64 = 1<<63 - 1
	deadline := time.Now().Add(minTime)
	for time.Now().Before(deadline) {
		start := time.Now()
		fn()
		if d := time.Since(start).Nanoseconds(); d < fastest {
			fastest = d
		}
	}
	return fastest
}
