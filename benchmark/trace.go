package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"parimg/internal/obs"
)

// span is one traced interval: an operation the benchmark timed from
// outside (an engine call, a request, a replayed layer call) or one of the
// obs phases the program recorded inside it. Times are nanoseconds from
// the start of the child's run; parent is the index of the enclosing span
// in the trace, -1 for an operation; spans of one operation share op_id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int64  `json:"op_id"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op records an operation span and returns its index.
func (t *tracer) op(name string, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.ops++
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: -1, OpID: t.ops})
	return len(t.spans) - 1
}

// child records a span inside the span at index parent.
func (t *tracer) child(parent int, name string, start time.Time, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent,
		OpID: t.spans[parent].OpID})
}

// phases attaches an operation's top-level obs phases as its children.
// The recorder keeps durations, not start times, so the phases are laid
// back to back from the operation's start in record order — exact for the
// engines, whose phases run one after another.
func (t *tracer) phases(parent int, ps []obs.Phase) {
	if t == nil || parent < 0 {
		return
	}
	at := t.t0.Add(time.Duration(t.spans[parent].Start))
	for _, p := range ps {
		if p.Parent != "" {
			continue
		}
		d := time.Duration(p.WallNS)
		t.child(parent, p.Name, at, d)
		at = at.Add(d)
	}
}

// spanTotals sums, per span name, the duration of the spans and their self
// time: the duration minus the part of it covered by the span's children.
func spanTotals(spans []span) (total, self map[string]int64) {
	total, self = make(map[string]int64), make(map[string]int64)
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s, kids[i])
	}
	return total, self
}

// covered returns how much of s the union of its children's intervals
// covers.
func covered(s span, kids []span) int64 {
	// Children are recorded in start order; merge overlapping intervals.
	var sum, lo, hi int64
	open := false
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if open && a <= hi {
			hi = max(hi, b)
			continue
		}
		if open {
			sum += hi - lo
		}
		lo, hi, open = a, b, true
	}
	if open {
		sum += hi - lo
	}
	return sum
}

// traceDoc is one workload's entry in trace.json.
type traceDoc struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	TotalNS  map[string]int64 `json:"total_ns"`
	SelfNS   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

// rtSample is a reading of the child's resource counters.
type rtSample struct {
	wall           time.Time
	allocBytes     uint64
	gcCPU, userCPU float64 // runtime-estimated CPU seconds
	procCPU        time.Duration
}

func readRuntime() rtSample {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtSample{wall: time.Now(), allocBytes: ms[0].Value.Uint64(),
		gcCPU: ms[1].Value.Float64(), userCPU: ms[2].Value.Float64(), procCPU: cpu}
}

// rtDelta accumulates the resource use of a leg's windows.
type rtDelta struct {
	wall, procCPU  time.Duration
	cpuCapacity    float64 // wall seconds × GOMAXPROCS
	allocBytes     uint64
	gcCPU, userCPU float64
}

// add folds in the readings a and b taken around one window.
func (d *rtDelta) add(a, b rtSample) {
	w := b.wall.Sub(a.wall)
	d.wall += w
	d.cpuCapacity += w.Seconds() * float64(runtime.GOMAXPROCS(0))
	d.procCPU += b.procCPU - a.procCPU
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.userCPU += b.userCPU - a.userCPU
}

// runtimeMetrics turns a leg's resource use over ops operations into the
// go.* and proc.* per-layer metrics.
func runtimeMetrics(d rtDelta, ops int, out map[string]float64) {
	out["go.alloc_mib_per_op"] = ratio(float64(d.allocBytes)/(1<<20), float64(ops))
	out["go.gc_cpu_frac"] = ratio(d.gcCPU, d.gcCPU+d.userCPU)
	out["proc.cpu_util"] = ratio(d.procCPU.Seconds(), d.cpuCapacity)
}
