// Package par is the host-parallel execution engine: it runs the paper's
// two primitives — connected component labeling and histogramming — on real
// worker goroutines for actual wall-clock speedup, with no cost model and
// no simulated clock. It complements package cc and package hist, which run
// the same algorithms under the BDM simulator to reproduce the paper's
// modeled measurements.
//
// The decomposition mirrors the paper's divide and conquer, mapped onto
// shared memory the way modern multicore CCL work does (Gupta et al.;
// Liu-Tarjan):
//
//   - Labeling: the engine labels any rows x cols band — a resident image
//     is the n x n band, and the out-of-core pipeline (internal/stream)
//     hands it one band window at a time. The band is split into one
//     horizontal strip per worker (contiguous in the row-major pixel
//     array, so strips are labeled in place with no scatter/gather). Each
//     worker labels its strip with its own seq.BandLabeler: it packs the
//     strip's rows, scans them into maximal runs and unites the runs in a
//     strip-local union-find, using band-unique seed labels (band
//     row-major index of a run's first pixel + 1), and paints only the
//     strip's first and last rows, into the engine's own edge rows. Each
//     strip boundary is then reduced to the union edges of its two facing
//     pixel rows, which are united in order into one sparse forest holding
//     only the labels that reach a seam. A final parallel pass maps the
//     fragments each strip's first and last rows reach through the forest,
//     which gives every run its final label; a one-strip band skips the
//     seam. The run tables are then the band's labeling: the streaming
//     pipeline folds and renders them as they are, and only a caller that
//     asks for pixels (the resident Label entries) gets every run painted
//     once, with its final label. Unite-by-minimum makes every root the
//     component's minimum seed label, so the result is pixel-for-pixel
//     identical to seq.LabelBFS, not merely equivalent up to renaming.
//
//   - Histogramming: per-worker tallies of each strip into sharded k-bucket
//     arrays, merged pairwise in a tree of log(workers) parallel rounds,
//     the shared-memory analogue of the paper's Section 4 transpose+combine.
//
// An Engine owns all scratch (per-worker band labelers with their packed
// planes and run tables, the seam forest and edge list, histogram shards)
// and reuses it across calls; the package-level Label and Histogram draw
// engines from a Pool and are safe for concurrent use.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// Engine is a reusable host-parallel executor with a fixed worker count and
// owned scratch. An Engine is not safe for concurrent use; the package
// functions Label and Histogram pool engines and are.
type Engine struct {
	workers int
	obs     *obs.Recorder     // metrics recorder; nil disables all accounting
	bands   []seq.BandLabeler // per-worker strip labelers (planes and run tables)
	strips  int               // strips of the last band: bands[:strips] hold its runs
	edge    []uint32          // each strip's first and last label rows, for the seams
	forest  Forest[uint32]    // seam forest: labels that reach a seam -> roots
	seam    []uint32          // one boundary's union edges (reused)
	links   int               // cross-border unions of the current call
	pairs   int64             // boundary pixel pairs of the current call (pre-dedup)
	edges   int64             // boundary union edges of the current call
	comps   []int             // per-worker strip component counts
	finds   []int64           // per-worker forest lookups (final paint)
	shards  [][]int64         // per-worker histogram tallies
	errs    []error           // per-worker tally errors

	// Lifecycle state. callMu is held for the duration of every
	// Label/Histogram call (begin locks it, end releases it), which is what
	// gives Close its drain semantics: closing waits on the mutex until the
	// in-flight call has retired. closed is checked under callMu by begin,
	// so a closed engine fails every subsequent call with errs.ErrClosed.
	callMu sync.Mutex
	closed atomic.Bool

	// Cancellation and fault-injection state. All of it is inert — one
	// atomic store and a nil check per call — unless the call carries a
	// context or the engine has an injector installed.
	stop       atomic.Bool     // raised by the context monitor or a worker panic
	cancelable bool            // this run can be interrupted (ctx or injector present)
	runCtx     context.Context // the active call's context; nil outside context calls
	runOp      string          // the active call's op name for error reporting
	t0         time.Time       // context-call start time, for RunError.After
	monitor    chan struct{}   // retires the context monitor goroutine
	monGone    chan struct{}   // closed when the monitor goroutine has exited
	wpanic     []error         // per-worker recovered panic, as ErrAborted run errors
	fault      *fault.Injector // nil disables fault injection (the production state)
}

// NewEngine returns an engine with the given number of workers; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		bands:   make([]seq.BandLabeler, workers),
		comps:   make([]int, workers),
		finds:   make([]int64, workers),
		shards:  make([][]int64, workers),
		errs:    make([]error, workers),
		wpanic:  make([]error, workers),
	}
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// SetFaultInjector installs (or, with nil, removes) a fault injector that
// every phase worker consults at its checkpoints. Testing only; must not be
// called while a Label/Histogram call is in flight.
func (e *Engine) SetFaultInjector(in *fault.Injector) { e.fault = in }

// SetObserver installs (or, with nil, removes) the metrics recorder that
// receives per-phase wall-clock times and operation counters from
// subsequent Label/Histogram calls. With a recorder installed, worker
// goroutines also carry a "parimg_phase" pprof label so CPU profiles can be
// sliced by phase. With nil (the default) every accounting path is a no-op
// and the engine's steady-state allocation guarantees are unchanged.
func (e *Engine) SetObserver(r *obs.Recorder) { e.obs = r }

// Observer returns the installed metrics recorder (nil when disabled).
func (e *Engine) Observer() *obs.Recorder { return e.obs }

// stripCount clips the worker count to at most one strip per band row.
func (e *Engine) stripCount(rows int) int {
	if e.workers < rows {
		return e.workers
	}
	return rows
}

// stripBounds returns the half-open row range of strip w of W over n rows.
func stripBounds(w, W, n int) (r0, r1 int) {
	return w * n / W, (w + 1) * n / W
}

// phase runs fn as one named wall-clock phase. With no recorder installed
// it is exactly fn() — no clock reads, no labels. With a recorder, the span
// is timed into a top-level phase and fn runs under a "parimg_phase" pprof
// label, which goroutines started inside fn (the phase's workers) inherit.
func (e *Engine) phase(name string, fn func()) {
	if e.obs == nil {
		fn()
		return
	}
	t0 := e.obs.StartPhase()
	pprof.Do(context.Background(), pprof.Labels("parimg_phase", name), func(context.Context) {
		fn()
	})
	e.obs.EndPhase(name, "", t0)
}

// parallelDo runs fn(0..w-1) on w goroutines and waits for all of them.
// Each worker runs under guard, so a panicking worker (a bug, or an
// injected fault) is recorded and stops the run instead of crashing the
// process; parallelDo always returns with every worker goroutine finished,
// which is what makes the abort path leak-free.
func (e *Engine) parallelDo(w int, fn func(int)) {
	if w == 1 {
		e.guard(0, fn)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			e.guard(i, fn)
		}(i)
	}
	wg.Wait()
}

// guard runs fn(i), converting a panic into a per-worker ErrAborted run
// error and raising the stop flag so sibling workers bail at their next
// checkpoint.
func (e *Engine) guard(i int, fn func(int)) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			e.wpanic[i] = errs.Aborted(e.runOp, cause, "worker %d panicked: %v", i, r)
			e.stop.Store(true)
		}
	}()
	fn(i)
}

// begin prepares one Label/Histogram call: takes the call mutex (released
// by end, or here on the error paths), rejects calls on a closed engine,
// clears the previous call's cancellation state and, when the call carries
// a context, starts the monitor goroutine that turns context expiry into
// the stop flag. Returns the mapped context error if ctx is already done.
// The nil-context path allocates nothing.
func (e *Engine) begin(op string, ctx context.Context) error {
	e.callMu.Lock()
	if e.closed.Load() {
		e.callMu.Unlock()
		return errs.Closed(op)
	}
	e.runOp = op
	for i := range e.wpanic {
		e.wpanic[i] = nil
	}
	e.stop.Store(false)
	e.cancelable = ctx != nil || e.fault != nil
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		e.callMu.Unlock()
		return errs.FromContext(op, 0, err)
	}
	e.runCtx = ctx
	e.t0 = time.Now()
	if done := ctx.Done(); done != nil {
		e.monitor = make(chan struct{})
		e.monGone = make(chan struct{})
		mon, gone := e.monitor, e.monGone
		stop := &e.stop
		go func() {
			defer close(gone)
			select {
			case <-done:
				stop.Store(true)
			case <-mon:
			}
		}()
	}
	return nil
}

// end retires the context monitor started by begin and waits for it to
// exit: if the context expired as the call was finishing, the monitor may
// have committed to its stop.Store branch but not executed it yet, and
// without the join that late store would poison the engine's next call.
// Releasing the call mutex last is what lets Close observe a fully retired
// call. Always paired with a successful begin; safe when begin started no
// monitor.
func (e *Engine) end() {
	if e.monitor != nil {
		close(e.monitor)
		<-e.monGone
		e.monitor, e.monGone = nil, nil
	}
	e.runCtx = nil
	e.callMu.Unlock()
}

// interrupted reports whether the current call should stop: a worker
// panicked or the stop flag was raised (context expiry or an injected
// no-show). Called between phases, after parallelDo's barrier, so the
// wpanic reads are ordered.
func (e *Engine) interrupted() bool {
	if e.stop.Load() {
		return true
	}
	for _, err := range e.wpanic {
		if err != nil {
			return true
		}
	}
	return false
}

// runError resolves how an interrupted call failed, in blame order: a
// worker panic beats a context error (the panic is why the run died even if
// the context also expired while it was unwinding). Returns nil for clean
// runs. A non-nil result is also recorded on the observer so an aborted
// run's metrics say so.
func (e *Engine) runError() error {
	var err error
	for _, werr := range e.wpanic {
		if werr != nil {
			err = werr
			break
		}
	}
	if err == nil && e.runCtx != nil {
		if cerr := e.runCtx.Err(); cerr != nil {
			err = errs.FromContext(e.runOp, time.Since(e.t0), cerr)
		}
	}
	if err == nil && e.stop.Load() {
		if e.closed.Load() {
			// Close raised the stop flag under the caller's feet; the
			// in-flight run unwound at its next checkpoint.
			err = errs.Closed(e.runOp)
		} else {
			// The stop flag without a context error or panic means an
			// injected no-show was released; report it as an abort.
			err = errs.Aborted(e.runOp, nil, "run stopped by injected fault")
		}
	}
	if err != nil {
		e.obs.MarkAborted(err.Error())
	}
	return err
}

// checkFault is the fault-injection checkpoint of the host-parallel phase
// workers: site names the phase, w the worker, round the phase-internal
// round (1 for single-round phases). One nil check when no injector is
// installed.
func (e *Engine) checkFault(site string, w, round int) {
	if e.fault == nil {
		return
	}
	s := fault.Site{Name: site, Rank: w, Round: round}
	switch act := e.fault.Decide(s); act.Class {
	case fault.Panic:
		panic(&fault.Injected{Site: s})
	case fault.Delay:
		time.Sleep(act.Delay)
	case fault.NoShow:
		if e.runCtx == nil || e.runCtx.Done() == nil {
			// Nothing could ever release this worker; parking would
			// deadlock the test instead of exercising it.
			s.Name += " (no-show without context)"
			panic(&fault.Injected{Site: s})
		}
		// Sit out until the caller's context tears the run down, like a
		// stuck worker would; the sibling workers' checkpoints see the
		// stop flag and unwind.
		<-e.runCtx.Done()
		e.stop.Store(true)
	}
}

// stopFlag returns the flag the strip labelers and the seam resolution poll
// for cooperative cancellation: the engine's stop flag for interruptible runs, nil (free)
// otherwise.
func (e *Engine) stopFlag() *atomic.Bool {
	if e.cancelable {
		return &e.stop
	}
	return nil
}

// Close shuts the engine down and waits for any in-flight call to retire:
// it marks the engine closed (every subsequent Label/Histogram call fails
// with an error wrapping errs.ErrClosed), raises the stop flag so an
// interruptible in-flight run unwinds at its next cancellation checkpoint
// and returns errs.ErrClosed to its caller, then blocks on the call mutex
// until that call has fully retired — including its context monitor
// goroutine, which is what lets a leak checker assert quiescence right
// after Close returns. A non-interruptible in-flight call (no context, no
// injector) never polls the flag and simply runs to completion; Close
// waits for it. While draining, the engine's heavy scratch (per-worker
// band labelers, seam forest) is released to the collector.
// Idempotent and safe to call concurrently with Label/Histogram; always
// returns nil.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil // already closed; a prior Close did (or is doing) the drain
	}
	e.stop.Store(true)
	e.callMu.Lock()
	// Drop the arena-sized scratch while we hold the mutex: the engine can
	// never run again, so the band labelers, seam forest and per-worker
	// state are dead weight a pooled deployment should not keep pinned.
	e.forest = Forest[uint32]{}
	e.seam, e.edge, e.strips = nil, nil, 0
	for i := range e.bands {
		e.bands[i] = seq.BandLabeler{}
		e.shards[i] = nil
	}
	e.obs = nil
	e.fault = nil
	e.callMu.Unlock()
	return nil
}

// Closed reports whether Close has been called.
func (e *Engine) Closed() bool { return e.closed.Load() }

// defaultPool serves the package-level convenience functions: engines with
// GOMAXPROCS workers, rented per call. Unlike a sync.Pool it is never
// drained by the collector, which keeps the steady-state allocation
// guarantees of the package functions intact.
var defaultPool = NewPool(0)

// Label labels im's connected components on a pooled engine with
// GOMAXPROCS workers; the result is identical to seq.LabelBFS. Invalid
// inputs return typed errors (see Engine.LabelContext). A nil ctx disables
// cancellation and a nil rec disables metrics; a non-nil rec is installed
// for the duration of the call only, and on an aborted run it holds the
// phases that completed plus the aborted marker. Safe for concurrent use,
// but concurrent callers sharing one recorder interleave their phase
// records.
func Label(ctx context.Context, rec *obs.Recorder, im *image.Image,
	conn image.Connectivity, mode seq.Mode) (*image.Labels, error) {
	e := defaultPool.rent()
	defer defaultPool.Return(e)
	e.SetObserver(rec)
	return e.LabelContext(ctx, im, conn, mode)
}

// Histogram computes im's k-bucket histogram on a pooled engine with
// GOMAXPROCS workers; see Engine.HistogramContext for the error and
// cancellation contract (a nil ctx disables cancellation). Safe for
// concurrent use.
func Histogram(ctx context.Context, im *image.Image, k int) ([]int64, error) {
	e := defaultPool.rent()
	defer defaultPool.Return(e)
	return e.HistogramContext(ctx, im, k)
}
