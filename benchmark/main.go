// Command parimg-bench is parimg's benchmark. From the repository root:
//
//	bash benchmark/run.sh                                # all workloads, seed 1, both passes
//	bash benchmark/run.sh --workload serve --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare base.jsonl new.jsonl  # medians, quartiles, verdicts
//
// For each workload it generates the inputs from the seed, computes the
// oracle, runs the workload in a child process (itself, re-executed) with
// GOMAXPROCS pinned to the machine's CPU count, checks every output the
// child reports against the oracle, and prints each metric with its unit.
// The last line of standard output is the run's result as one JSON object.
// An untraced pass (-trace 0) reports the end-to-end metrics of
// BENCHMARK.json, a traced pass (-trace 1) the per-layer ones and writes
// the spans to trace.json. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

func main() { os.Exit(run()) }

// options are the parent's flags.
type options struct {
	seed     uint64
	seconds  float64
	short    bool
	results  string
	traceOut string
	work     string // generated inputs go in a temporary directory under this one
}

func run() int {
	var (
		o        options
		workload = flag.String("workload", "", "run only this workload (default: all)")
		trace    = flag.Int("trace", -1, "1: traced per-layer pass only, 0: untraced end-to-end pass only, -1: both")
		compare  = flag.Bool("compare", false, "compare results files: -compare BASE.jsonl NEW.jsonl...")
		child    = flag.String("child", "", "run one workload pass from this manifest and report on stdout (internal)")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per pass (default: BENCHMARK.json run_seconds; 0.3 with -short)")
	flag.BoolVar(&o.short, "short", false, "toy sizes, in process, without peak_rss_mib")
	flag.StringVar(&o.results, "results", filepath.Join(".bench_build", "results.jsonl"), "append one JSON record per pass to this file (empty: none)")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "trace.json"), "write the traced passes' spans to this file")
	o.work = filepath.Join(".bench_build", "work")
	flag.Parse()

	if *child != "" {
		return childMain(*child)
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "parimg-bench:", err)
		return 1
	}
	if *compare {
		return compareMain(os.Stdout, spec, flag.Args())
	}
	names := workloadNames
	if *workload != "" {
		if !spec.hasWorkload(*workload) {
			fmt.Fprintf(os.Stderr, "parimg-bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
		if o.short {
			o.seconds = 0.3
		}
	}
	passes := []bool{false, true}
	switch *trace {
	case 0:
		passes = passes[:1]
	case 1:
		passes = passes[1:]
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var recs []record
	var traces []*traceDoc
	for _, name := range names {
		rs, tds, err := benchWorkload(ctx, spec, o, name, passes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parimg-bench: %s: %v\n", name, err)
			return 1
		}
		recs = append(recs, rs...)
		traces = append(traces, tds...)
	}
	if err := writeOutputs(o, recs, traces); err != nil {
		fmt.Fprintln(os.Stderr, "parimg-bench:", err)
		return 1
	}
	final := recs[0].result
	if len(recs) > 1 {
		final = combine(recs)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parimg-bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// benchWorkload generates one workload's inputs and oracle and runs the
// requested passes over them.
func benchWorkload(ctx context.Context, spec *benchSpec, o options, name string,
	passes []bool) ([]record, []*traceDoc, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.work, name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	sz := fullSizes
	if o.short {
		sz = toySizes
	}
	m := &manifest{Workload: name, Seed: o.seed, Seconds: o.seconds, Workers: runtime.NumCPU(), Sizes: sz}
	oracle, err := prepare(m, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	// The parent idles while a child measures: hand the generation garbage
	// back to the OS first.
	debug.FreeOSMemory()
	var recs []record
	var traces []*traceDoc
	for _, traced := range passes {
		m.Trace = traced
		rec, td, err := runPass(ctx, spec, m, oracle, dir, o.short)
		if err != nil {
			return nil, nil, err
		}
		printRecord(os.Stdout, spec, rec)
		recs = append(recs, rec)
		if td != nil {
			traces = append(traces, td)
		}
	}
	return recs, traces, nil
}

// runPass runs one pass of the manifest's workload, in this process with
// -short and in a child process otherwise, and checks its outputs against
// the oracle.
func runPass(ctx context.Context, spec *benchSpec, m *manifest, oracle map[string]uint32,
	dir string, inProcess bool) (record, *traceDoc, error) {
	var rep *childReport
	var err error
	specs := spec.metrics(m.Trace)
	if inProcess {
		rep, err = runChild(m)
		if !m.Trace {
			specs = without(specs, "peak_rss_mib")
		}
	} else {
		rep, err = spawn(ctx, m, dir)
		if err == nil && !m.Trace {
			rep.Metrics["peak_rss_mib"] = rep.PeakRSSMiB
		}
	}
	if err != nil {
		return record{}, nil, err
	}
	mismatched, problems := verify(rep, oracle)
	for _, p := range append(rep.Errors, problems...) {
		fmt.Fprintf(os.Stderr, "parimg-bench: %s: %s\n", m.Workload, p)
	}
	metrics, err := attach(specs, rep.Metrics)
	if err != nil {
		return record{}, nil, err
	}
	failed := rep.Failed + mismatched
	rec := record{Workload: m.Workload, Seed: m.Seed, Trace: m.Trace, Seconds: m.Seconds, Detail: rep.Detail,
		result: result{Correct: failed == 0 && len(problems) == 0 && rep.Attempted > 0,
			Attempted: rep.Attempted, Failed: failed, Metrics: metrics}}
	return rec, rep.Trace, nil
}

func without(specs []metricSpec, name string) []metricSpec {
	var out []metricSpec
	for _, m := range specs {
		if m.Name != name {
			out = append(out, m)
		}
	}
	return out
}

// spawn runs the pass in a child process — this binary re-executed with
// -child — and returns its report.
func spawn(ctx context.Context, m *manifest, dir string) (*childReport, error) {
	path := filepath.Join(dir, "manifest.json")
	data, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-child", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("workload child report: %w", err)
	}
	return &rep, nil
}

// childMain is the child side of spawn.
func childMain(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parimg-bench child:", err)
		return 1
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		fmt.Fprintln(os.Stderr, "parimg-bench child:", err)
		return 1
	}
	rep, err := runChild(&m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parimg-bench child: %s: %v\n", m.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "parimg-bench child:", err)
		return 1
	}
	return 0
}

// verify checks every output fingerprint the child reported against the
// oracle and returns how many operations produced a wrong output, plus a
// problem for each wrong fingerprint and each input never checked.
func verify(rep *childReport, oracle map[string]uint32) (mismatched int, problems []string) {
	keys := make([]string, 0, len(rep.Outputs))
	for k := range rep.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want, known := oracle[key]
		for fp, n := range rep.Outputs[key] {
			if !known || fp != fmt.Sprintf("%08x", want) {
				mismatched += n
				problems = append(problems, fmt.Sprintf("%s: %d output(s) with fingerprint %s, oracle %08x", key, n, fp, want))
			}
		}
	}
	for key := range oracle {
		if _, ok := rep.Outputs[key]; !ok {
			problems = append(problems, key+": no output was checked")
		}
	}
	return mismatched, problems
}

// combine folds several passes into one result line, metrics keyed
// "workload/metric".
func combine(recs []record) result {
	out := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			out.Metrics[r.Workload+"/"+k] = v
		}
	}
	return out
}

// printRecord prints one pass for a human reader.
func printRecord(w io.Writer, spec *benchSpec, r record) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d  correct=%v  attempted=%d  failed=%d\n",
		r.Workload, kind, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, m := range spec.metrics(r.Trace) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "   %-26s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	keys := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-26s %14.6g (detail)\n", k, r.Detail[k])
	}
}

// writeOutputs appends the records to the results file and writes the
// traced passes' spans.
func writeOutputs(o options, recs []record, traces []*traceDoc) error {
	if o.results != "" {
		if err := os.MkdirAll(filepath.Dir(o.results), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(o.results, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(traces) > 0 && o.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(traces)
		if err != nil {
			return err
		}
		return os.WriteFile(o.traceOut, data, 0o644)
	}
	return nil
}
