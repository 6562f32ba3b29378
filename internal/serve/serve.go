// Package serve is the labeling-as-a-service runtime behind cmd/imgccd: it
// composes *inter*-image parallelism (one task per request, scheduled onto
// N runner goroutines by one bounded FIFO queue) with the existing
// *intra*-image strip parallelism of internal/par (each runner drives a
// W-worker engine rented from a par.Pool).
//
// The two layers split the machine by policy, not by accident: N×W must
// stay within ceil(GOMAXPROCS × Oversubscribe), so a deployment chooses
// its point on the throughput/latency curve explicitly — many single-worker
// engines for request throughput, or a few wide engines for per-image
// latency — instead of oversubscribing the cores implicitly.
//
// Admission control is a bounded queue: a request that arrives with
// QueueDepth tasks already waiting is rejected with ErrSaturated (HTTP 429
// + Retry-After at the HTTP layer) rather than queued into unbounded
// latency. Accepted requests carry their context through
// Engine.LabelIntoContext, so a deadline or a disconnecting client stops
// the strip workers at their next cancellation checkpoint. Every request
// produces one parimg-metrics/v1 document (decode, queue_wait, the engine
// phases, census) that is folded into an obs.Agg for the /metrics
// aggregate and kept in a bounded history ring.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/par"
	"parimg/internal/seq"
)

// ErrSaturated is returned by Do (and mapped to HTTP 429 by the handler)
// when the admission queue is at capacity: the request was never accepted,
// so retrying after a backoff is safe and expected.
var ErrSaturated = errors.New("server saturated")

// saturated wraps ErrSaturated with the rejecting operation.
func saturated() error {
	return fmt.Errorf("serve.Do: admission queue at capacity: %w", ErrSaturated)
}

// Config sizes a Server. The zero value is usable: every field has a
// documented default applied by New.
type Config struct {
	// Engines is N, the number of runner goroutines (each drives one
	// rented engine, so it is also the maximum number of images labeled
	// concurrently). <= 0 derives the largest N with N×EngineWorkers
	// inside the core budget (at least 1).
	Engines int
	// EngineWorkers is W, the strip-worker count of every engine; <= 0
	// selects 1 (the throughput-oriented default: intra-image parallelism
	// pays off per image, but under concurrent load independent requests
	// keep every core busy without barrier overhead).
	EngineWorkers int
	// Oversubscribe scales the core budget: N×W must stay within
	// ceil(GOMAXPROCS × Oversubscribe). <= 0 selects 1.0. Values above 1
	// deliberately oversubscribe the cores (useful when requests spend
	// time blocked, or to exercise scheduling in tests).
	Oversubscribe float64
	// QueueDepth bounds the number of accepted-but-not-yet-running tasks;
	// a request arriving beyond it is rejected with ErrSaturated. <= 0
	// selects 2×Engines.
	QueueDepth int
	// DefaultDeadline bounds each request's labeling work when the
	// request does not carry a tighter deadline of its own; 0 means no
	// server-imposed deadline.
	DefaultDeadline time.Duration
	// MaxBodyBytes bounds the request body the HTTP handler will read;
	// <= 0 selects 256 MiB (a 16384² PGM with room to spare).
	MaxBodyBytes int64
	// History is the number of recent per-request metrics documents the
	// /metrics endpoint returns alongside the aggregate; <= 0 selects 32.
	History int
}

// normalized applies the documented defaults and validates the N×W policy.
func (c Config) normalized() (Config, error) {
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	if c.Oversubscribe <= 0 {
		c.Oversubscribe = 1.0
	}
	budget := int(math.Ceil(float64(runtime.GOMAXPROCS(0)) * c.Oversubscribe))
	if budget < 1 {
		budget = 1
	}
	if c.Engines <= 0 {
		c.Engines = budget / c.EngineWorkers
		if c.Engines < 1 {
			c.Engines = 1
		}
	} else if c.Engines*c.EngineWorkers > budget {
		return c, errs.Bad("serve.New",
			"engines×workers %d×%d exceeds the core budget ceil(%d×%.2g)=%d; raise Oversubscribe to opt into oversubscription",
			c.Engines, c.EngineWorkers, runtime.GOMAXPROCS(0), c.Oversubscribe, budget)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Engines
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.History <= 0 {
		c.History = 32
	}
	return c, nil
}

// Job is one labeling request. Image is required; zero values of the other
// fields select the engine defaults (Conn8, Binary, no census).
type Job struct {
	Image *image.Image
	Conn  image.Connectivity
	Mode  seq.Mode
	// Census also computes the per-component statistics (size, bounding
	// box, centroid) after labeling, timed as the "census" phase.
	Census bool
	// Fault, when non-nil, is installed on the rented engine for this job
	// only (the pool's Return scrubs it). Chaos testing: a production
	// request never sets it, and the HTTP layer cannot.
	Fault *fault.Injector
	// Name labels the request's metrics document (defaults to "upload").
	Name string
	// Rec, when non-nil, is the request's metrics recorder; the HTTP
	// handler pre-loads it with the "decode" phase before calling Do. Nil
	// makes Do allocate a fresh one.
	Rec *obs.Recorder
	// Start is the request's wall-clock origin for TotalNS; the HTTP
	// handler sets it at handler entry so queue wait and decode are
	// inside the measured total. Zero means Do entry.
	Start time.Time
}

// Result is a completed labeling: the raw engine labels (pixel-identical
// to seq.LabelBFS), the component count, the census when requested, and
// the request's metrics document.
type Result struct {
	Labels     *image.Labels
	Components int
	Census     []image.ComponentStat
	Metrics    *obs.Metrics
}

// Server is the pooled-engine labeling runtime. Create with New, serve
// over HTTP via Handler or call Do directly, shut down with Close.
type Server struct {
	cfg      Config
	pool     *par.Pool
	sched    *sched
	agg      *obs.Agg
	hist     *history
	rejected atomic.Int64
	closed   atomic.Bool
}

// New starts a server: Engines runner goroutines over a pool of
// EngineWorkers-wide engines. The only error is a typed ErrBadInput when
// the config violates the N×W core-budget policy.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		pool: par.NewPool(cfg.EngineWorkers),
		agg:  obs.NewAgg(),
		hist: newHistory(cfg.History),
	}
	s.sched = newSched(cfg.Engines, cfg.QueueDepth, s.run)
	return s, nil
}

// Config returns the server's configuration with all defaults resolved.
func (s *Server) Config() Config { return s.cfg }

// Close shuts the server down: queued-but-unstarted tasks fail with
// ErrClosed, in-flight tasks run to completion (their own deadlines bound
// them), the runner goroutines exit, and every pooled engine is closed.
// Idempotent; always returns nil.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.sched.close()
	s.pool.Close()
	return nil
}

// Do labels one image through the scheduler and blocks until the task
// completes (or is rejected). Errors are typed: ErrSaturated on a full
// queue, errs.ErrBadInput for invalid images, errs.ErrDeadline /
// errs.ErrCanceled when ctx stops an accepted run, errs.ErrClosed after
// Close. Safe for concurrent use from any number of goroutines.
func (s *Server) Do(ctx context.Context, job Job) (*Result, error) {
	if s.closed.Load() {
		return nil, errs.Closed("serve.Do")
	}
	if job.Image == nil {
		return nil, errs.Bad("serve.Do", "nil image")
	}
	if err := job.Image.Check(); err != nil {
		return nil, err
	}
	if job.Conn == 0 {
		job.Conn = image.Conn8
	}
	if job.Name == "" {
		job.Name = "upload"
	}
	if job.Rec == nil {
		job.Rec = obs.NewRecorder()
	}
	if job.Start.IsZero() {
		job.Start = time.Now()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t := &task{ctx: ctx, job: job, done: make(chan struct{})}
	if err := s.sched.submit(t); err != nil {
		if errors.Is(err, ErrSaturated) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	<-t.done
	if t.err != nil {
		return nil, t.err
	}
	return t.res, nil
}

// run executes one dequeued task on a rented engine. It always completes
// the task (closes t.done) and always finalizes the request's metrics
// document, so aborted requests are visible in the aggregate too.
func (s *Server) run(t *task) {
	rec := t.job.Rec
	rec.EndPhase("queue_wait", "", t.enq)
	defer func() { s.finish(t, rec); close(t.done) }()
	if err := t.ctx.Err(); err != nil {
		// The deadline expired while the task sat in the queue; fail
		// without renting an engine.
		t.err = errs.FromContext("serve.Do", time.Since(t.job.Start), err)
		return
	}
	e, err := s.pool.Rent()
	if err != nil {
		t.err = err
		return
	}
	defer s.pool.Return(e)
	e.SetObserver(rec)
	e.SetFaultInjector(t.job.Fault)
	labels := image.NewLabels(t.job.Image.N)
	comps, err := e.LabelIntoContext(t.ctx, t.job.Image, t.job.Conn, t.job.Mode, labels)
	if err != nil {
		t.err = err
		return
	}
	res := &Result{Labels: labels, Components: comps}
	if t.job.Census {
		t0 := rec.StartPhase()
		stats, err := labels.CensusChecked(t.job.Image)
		rec.EndPhase("census", "", t0)
		if err != nil {
			t.err = err
			return
		}
		res.Census = stats
	}
	t.res = res
}

// finish builds the request's metrics document, folds it into the
// aggregate and the history ring, and attaches it to the result.
func (s *Server) finish(t *task, rec *obs.Recorder) {
	if t.err != nil {
		rec.MarkAborted(t.err.Error()) // first mark wins; engine aborts keep their cause
	}
	m := rec.Snapshot()
	m.Command = "imgccd"
	m.Backend = "par"
	m.Workers = s.cfg.EngineWorkers
	m.Image = t.job.Name
	m.N = t.job.Image.N
	m.TotalNS = time.Since(t.job.Start).Nanoseconds()
	s.agg.Observe(m)
	s.hist.add(m)
	if t.res != nil {
		t.res.Metrics = m
	}
}

// Health labels a 16×16 pattern through the full scheduler path and
// checks the result pixel-for-pixel against the sequential reference: the
// liveness probe exercises exactly what a real request exercises.
func (s *Server) Health(ctx context.Context) error {
	im := image.Generate(image.DualSpiral, 16)
	res, err := s.Do(ctx, Job{Image: im, Conn: image.Conn8, Mode: seq.Binary, Name: "healthz"})
	if err != nil {
		return err
	}
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	for i := range want.Lab {
		if res.Labels.Lab[i] != want.Lab[i] {
			return fmt.Errorf("serve: healthz labeling mismatch at pixel %d: got %d, want %d",
				i, res.Labels.Lab[i], want.Lab[i])
		}
	}
	return nil
}

// MetricsDocs assembles the /metrics payload: the aggregate document
// first (Image "aggregate", with the server counters merged in), then the
// most recent per-request documents, newest last. Every document is a
// valid parimg-metrics/v1.
func (s *Server) MetricsDocs() []*obs.Metrics {
	agg := s.agg.Snapshot()
	agg.Command = "imgccd"
	agg.Backend = "par"
	agg.Workers = s.cfg.EngineWorkers
	agg.Image = "aggregate"
	agg.Counters["queue_depth"] = int64(s.sched.depthNow())
	agg.Counters["queue_capacity"] = int64(s.cfg.QueueDepth)
	agg.Counters["rejected"] = s.rejected.Load()
	agg.Counters["runners"] = int64(s.cfg.Engines)
	agg.Counters["engine_workers"] = int64(s.cfg.EngineWorkers)
	return append([]*obs.Metrics{agg}, s.hist.recent()...)
}
