package par

import (
	"sync"

	"parimg/internal/errs"
)

// Pool is a free-list of same-sized Engines for callers that need many
// engines over time but only a few at once — the package-level Label and
// Histogram functions rent from one, and a serving runtime rents one per
// concurrent request. Renting an idle engine is a mutex acquire and a slice
// pop; only a rent that finds the free list empty constructs a new Engine
// (and with it the engine's per-worker scratch arenas, which then amortize
// across every later rental the way a single Engine's scratch amortizes
// across calls).
//
// Return scrubs all per-renter configuration — observer and fault
// injector — so a rented engine always starts from the documented
// defaults no matter what the previous renter set. Unlike a sync.Pool, a
// Pool is never drained by the garbage collector: a warm service keeps its
// arenas.
type Pool struct {
	workers int

	mu     sync.Mutex
	free   []*Engine
	closed bool
}

// NewPool returns a pool of engines with the given worker count each;
// workers <= 0 selects runtime.GOMAXPROCS(0) (resolved once, here, so every
// engine the pool ever makes has the same worker count). The pool starts
// empty: engines are constructed on demand by Rent.
func NewPool(workers int) *Pool {
	// Resolve through NewEngine so the default stays defined in one place.
	probe := NewEngine(workers)
	return &Pool{workers: probe.Workers(), free: []*Engine{probe}}
}

// Workers returns the worker count of the pool's engines.
func (p *Pool) Workers() int { return p.workers }

// Rent returns an idle engine, constructing one if the free list is empty.
// The engine is configured with the documented defaults (no observer, no
// fault injector); the caller owns it until Return. After Close, Rent fails
// with an error wrapping errs.ErrClosed.
func (p *Pool) Rent() (*Engine, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errs.Closed("par.Pool.Rent")
	}
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return e, nil
	}
	p.mu.Unlock()
	return NewEngine(p.workers), nil
}

// rent is Rent for the package-level convenience functions, whose pool is
// never closed. Invariant panic: fails only on a closed pool.
func (p *Pool) rent() *Engine {
	e, err := p.Rent()
	if err != nil {
		panic("par: rent from closed default pool: " + err.Error())
	}
	return e
}

// Return puts a rented engine back on the free list after scrubbing its
// per-renter configuration. An engine that was closed while rented is not
// pooled (it can never run again); returning to a closed pool closes the
// engine instead of pooling it. Return(nil) is a no-op, so
// `defer pool.Return(e)` is safe alongside a Rent error check.
func (p *Pool) Return(e *Engine) {
	if e == nil || e.Closed() {
		return
	}
	e.SetObserver(nil)
	e.SetFaultInjector(nil)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		e.Close()
		return
	}
	p.free = append(p.free, e)
	p.mu.Unlock()
}

// Idle returns the number of engines currently on the free list.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Close closes the pool and every idle engine. Subsequent Rent calls fail
// with an error wrapping errs.ErrClosed; engines still rented out keep
// working and are closed when Returned. Idempotent; always returns nil.
func (p *Pool) Close() error {
	p.mu.Lock()
	idle := p.free
	p.free, p.closed = nil, true
	p.mu.Unlock()
	for _, e := range idle {
		e.Close()
	}
	return nil
}
