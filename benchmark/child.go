package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"parimg/internal/obs"
)

// childReport is what a workload child hands back to the parent: its
// metrics, how many operations it attempted and how many failed outright,
// the fingerprint of every output per input key (the parent checks them
// against the oracle), reported-but-ungated details, and the trace.
type childReport struct {
	Metrics   map[string]float64        `json:"metrics"`
	Detail    map[string]float64        `json:"detail,omitempty"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Errors    []string                  `json:"errors,omitempty"`
	Outputs   map[string]map[string]int `json:"outputs"`
	Trace     *traceDoc                 `json:"trace,omitempty"`
	// PeakRSSMiB is the process's VmHWM when the pass ended. Only a
	// spawned child's is the workload's own: in process it includes the
	// parent's input generation.
	PeakRSSMiB float64 `json:"peak_rss_mib"`

	mu sync.Mutex // guards the counters and Outputs; serve's clients report concurrently
}

func newReport() *childReport {
	return &childReport{Metrics: make(map[string]float64), Detail: make(map[string]float64),
		Outputs: make(map[string]map[string]int)}
}

// ok records a completed operation on input key with output fingerprint fp.
func (r *childReport) ok(key string, fp uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	fps := r.Outputs[key]
	if fps == nil {
		fps = make(map[string]int)
		r.Outputs[key] = fps
	}
	fps[fmt.Sprintf("%08x", fp)]++
}

// fail records an operation on input key that returned an error.
func (r *childReport) fail(key string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, key+": "+err.Error())
	}
}

// child runs one workload pass: set-up, the measured legs and, traced, the
// layer replay.
type child struct {
	m   *manifest
	rep *childReport
	tr  *tracer          // nil when untraced
	ctr map[string]int64 // obs counters summed over the traced operations
}

// runChild runs the manifest's workload pass in this process with
// GOMAXPROCS pinned to the manifest's worker count.
func runChild(m *manifest) (*childReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(m.Workers))
	c := &child{m: m, ctr: make(map[string]int64), rep: newReport()}
	if m.Trace {
		c.tr = newTracer()
	}
	var err error
	switch m.Workload {
	case "resident":
		err = c.resident()
	case "stream-label", "stream-noise":
		err = c.stream()
	case "serve":
		err = c.serve()
	default:
		err = fmt.Errorf("unknown workload %q", m.Workload)
	}
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		total, self := spanTotals(c.tr.spans)
		c.rep.Trace = &traceDoc{Workload: m.Workload, Seed: m.Seed, TotalNS: total, SelfNS: self, Spans: c.tr.spans}
	}
	if c.rep.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	return c.rep, nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
// The child reads its own: the kernel's ru_maxrss for a child started by
// fork+exec can carry the parent's peak across the exec.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// budget returns the pass's measured time.
func (c *child) budget() time.Duration {
	return time.Duration(c.m.Seconds * float64(time.Second))
}

// traceOp records a traced operation with the obs phases its recorder
// collected, folds in its counters, and resets the recorder for the next
// operation.
func (c *child) traceOp(name string, start time.Time, d time.Duration, rec *obs.Recorder) {
	m := rec.Snapshot()
	rec.Reset()
	c.tr.phases(c.tr.op(name, start, d), m.Phases)
	for k, v := range m.Counters {
		c.ctr[k] += v
	}
}

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// interleave runs the windows in turn, round after round, until budget has
// elapsed (at least one round), so every leg samples the host's conditions
// across the whole pass rather than one stretch of it.
//
// The benchmark runs on shared machines, where the host slows a process
// down in regimes lasting seconds (on the 2-CPU VM the spreads in
// README.md were measured on, one-core labeling alternated between about
// 17 and 27 ms per op for seconds at a time). Interference only ever adds
// time, so the legs take short turns (Sizes.Window of operation time
// each) and every leg reports each input's quietest window (leg.best): the
// steadiest measure of the code's own speed. The all-operation medians
// are kept as details.
func interleave(budget time.Duration, windows ...func()) {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		for _, w := range windows {
			w()
		}
	}
}

// opRec is one timed operation of a closed-loop leg.
type opRec struct {
	key string
	px  int64
	lat float64 // seconds
}

// leg is one measured configuration of a closed-loop workload — an
// operation run under GOMAXPROCS procs — run a window at a time.
type leg struct {
	procs  int
	inputs int           // distinct inputs every window covers
	dur    time.Duration // operation time of a window
	op     func(k int) opRec
	ops    []opRec
	rt     rtDelta
}

// newLeg returns a leg of op over inputs distinct inputs under GOMAXPROCS
// procs, with the pass's window length.
func (c *child) newLeg(procs, inputs int, op func(k int) opRec) *leg {
	return &leg{procs: procs, inputs: inputs, dur: c.m.Sizes.Window, op: op}
}

// window runs the leg's operations until they last at least its window
// length and cover every input.
func (l *leg) window() {
	withProcs(l.procs, func() {
		a := readRuntime()
		seen := make(map[string]bool)
		for sum := 0.0; sum < l.dur.Seconds() || len(seen) < l.inputs; {
			op := l.op(len(l.ops))
			l.ops = append(l.ops, op)
			seen[op.key] = true
			sum += op.lat
		}
		l.rt.add(a, readRuntime())
	})
}

func (l *leg) latencies() []float64 {
	xs := make([]float64, len(l.ops))
	for i, op := range l.ops {
		xs[i] = op.lat
	}
	return xs
}

// perf is what a leg achieved, from one representative latency per input.
type perf struct {
	mpix float64 // geomean over inputs of pixels / latency, MPix/s
	p50  float64 // geomean over inputs of latency, s
	rate float64 // operations per second, one per input
}

// measure summarizes a leg from each input's latency, picked from that
// input's latencies in operation order by pick.
func (l *leg) measure(pick func([]float64) float64) perf {
	lat := make(map[string][]float64)
	px := make(map[string]float64)
	var keys []string
	for _, op := range l.ops {
		if _, ok := lat[op.key]; !ok {
			keys = append(keys, op.key)
		}
		lat[op.key] = append(lat[op.key], op.lat)
		px[op.key] = float64(op.px)
	}
	var rates, picked []float64
	var total float64
	for _, k := range keys {
		m := pick(lat[k])
		picked = append(picked, m)
		rates = append(rates, px[k]/m/1e6)
		total += m
	}
	return perf{mpix: geomean(rates), p50: geomean(picked), rate: ratio(float64(len(keys)), total)}
}

// all is the leg measured by each input's median over every operation.
func (l *leg) all() perf { return l.measure(median) }

// best is the leg measured by each input's quietest window: the input's
// operations are grouped, in order, into windows of at least the leg's
// window length, and the window with the lowest median latency counts.
func (l *leg) best() perf {
	return l.measure(func(lats []float64) float64 {
		top := math.Inf(1)
		lo, sum := 0, 0.0
		for i, x := range lats {
			if sum += x; sum >= l.dur.Seconds() || i == len(lats)-1 && lo == 0 {
				top = min(top, median(lats[lo:i+1]))
				lo, sum = i+1, 0
			}
		}
		return top
	})
}

// rounds runs the legs' windows interleaved for the pass's budget with one
// cold set-up leading every round, so the set-ups sample the whole pass
// too, topped up to SetupReps at the end. It returns the set-up times;
// setup_s is their median.
func (c *child) rounds(setup func() time.Duration, windows ...func()) []float64 {
	var ts []float64
	cold := func() {
		ts = append(ts, setup().Seconds())
		runtime.GC() // drop the torn-down system before the next cold start
	}
	interleave(c.budget(), append([]func(){cold}, windows...)...)
	for len(ts) < c.m.Sizes.SetupReps {
		cold()
	}
	return ts
}

// e2e sets the end-to-end metrics of an untraced closed-loop workload from
// the legs' quietest windows, with the all-operation values as details.
func (c *child) e2e(setup []float64, main, one *leg) {
	b, a := main.best(), main.all()
	c.rep.Metrics["setup_s"] = median(setup)
	c.rep.Metrics["p50_ms"] = b.p50 * 1e3
	c.rep.Metrics["mpix_s"] = b.mpix
	c.rep.Metrics["mpix_s_w1"] = one.best().mpix
	c.rep.Detail["max_rps"] = b.rate
	c.rep.Detail["all.p50_ms"] = a.p50 * 1e3
	c.rep.Detail["all.mpix_s"] = a.mpix
	c.rep.Detail["all.mpix_s_w1"] = one.all().mpix
	c.rep.Detail["all.p99_ms"] = percentile(main.latencies(), 99) * 1e3
	c.rep.Detail["all.ops"] = float64(len(main.ops))
}

// layers sets the per-layer metrics of a traced closed-loop workload from
// the untraced leg u, the traced leg t (operations named op), the one-core
// leg and the replay.
func (c *child) layers(op string, u, t, one *leg, st *replayStats) {
	out := c.rep.Metrics
	total, self := spanTotals(c.tr.spans)
	phaseNS := make(map[string]float64)
	for name, ns := range total {
		phaseNS[name] = float64(ns)
	}
	shares(out, phaseNS, float64(total[op]), float64(self[op]), 0)
	c.counters(out, len(t.ops))
	out["op.p99_ms"] = percentile(t.latencies(), 99) * 1e3
	out["op.samples"] = float64(len(t.ops))
	out["serve.conn_wait.share"] = 0
	out["serve.gen_late.share"] = 0
	out["serve.rejected"] = 0
	runtimeMetrics(t.rt, len(t.ops), out)
	out["par.scaling_eff"] = ratio(u.best().mpix, float64(c.m.Workers)*one.best().mpix)
	out["trace.overhead_frac"] = 1 - ratio(t.best().rate, u.best().rate)
	st.metrics(out)
}

// stageOf maps the obs phases the program records onto the per-layer
// stages whose share of operation wall time the benchmark reports.
var stageOf = map[string]string{
	"decode": "image.decode.share", "band_decode": "image.decode.share",
	"strip_label": "seq.label.share", "band_label": "seq.label.share",
	"border_merge": "par.seam.share", "band_merge": "par.seam.share",
	"relabel": "par.relabel.share", "cleanup": "par.relabel.share",
	"band_write": "stream.write.share",
	"census":     "image.census.share",
	"queue_wait": "serve.queue_wait.share",
}

// shares sets each stage's share of opNS, the operations' total wall time
// (zero for stages the workload never enters), plus the unphased and
// respond shares.
func shares(out map[string]float64, phaseNS map[string]float64, opNS, unphasedNS, respondNS float64) {
	for _, st := range stageOf {
		out[st] = 0
	}
	for phase, ns := range phaseNS {
		if st, ok := stageOf[phase]; ok {
			out[st] += ratio(ns, opNS)
		}
	}
	out["unphased.share"] = ratio(unphasedNS, opNS)
	out["serve.respond.share"] = ratio(respondNS, opNS)
}

// counters sets the per-operation obs counter metrics.
func (c *child) counters(out map[string]float64, ops int) {
	per := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += c.ctr[name]
		}
		return ratio(float64(n), float64(ops))
	}
	out["seq.runs"] = per("runs", "grey_runs")
	out["seq.strip_components"] = per("strip_components")
	out["par.seam.pairs"] = per("border_pairs")
	out["par.seam.edges"] = per("border_edges")
	out["par.seam.links"] = per("border_links")
	out["par.seam.link_ratio"] = ratio(float64(c.ctr["border_links"]), float64(c.ctr["border_edges"]))
	out["stream.bands"] = per("bands")
}

// replayFile replays one input file through the layer functions.
func (c *child) replayFile(path string, bandRows int, in *input, st *replayStats) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return replayPGM(f, bandRows, in.conn(), in.mode(), c.tr, st)
}
