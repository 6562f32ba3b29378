package par

import (
	"context"
	"errors"
	"testing"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
	"parimg/internal/obs"
	"parimg/internal/seq"
)

// TestEngineCloseRejectsCalls checks the Close contract on an idle engine:
// every entry point fails with the typed ErrClosed afterwards, Closed
// reports it, and Close is idempotent.
func TestEngineCloseRejectsCalls(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 32)
	e := NewEngine(2)
	if _, err := e.LabelContext(nil, im, image.Conn8, seq.Binary); err != nil {
		t.Fatalf("label before Close: %v", err)
	}
	if e.Closed() {
		t.Fatal("Closed() true before Close")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !e.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if _, err := e.LabelContext(nil, im, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("LabelContext(nil) after Close: got %v, want ErrClosed", err)
	}
	if _, err := e.LabelContext(context.Background(), im, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("LabelContext after Close: got %v, want ErrClosed", err)
	}
	if _, err := e.Histogram(im, 2); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("Histogram after Close: got %v, want ErrClosed", err)
	}
	var re *errs.RunError
	_, err := e.LabelContext(nil, im, image.Conn8, seq.Binary)
	if !errors.As(err, &re) {
		t.Fatalf("post-Close error is %T, want *errs.RunError", err)
	}
}

// TestEngineCloseDrainsInFlight closes an engine while a slowed, cancelable
// run is in flight: the run must unwind at its next checkpoint with
// ErrClosed, and Close must not return before the call has retired (no
// goroutines left behind — leakcheck enforces the monitor joined).
func TestEngineCloseDrainsInFlight(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 64)
	e := NewEngine(2)
	e.SetFaultInjector(fault.New(1, fault.Delay, 1).
		At("strip_label").OnRank(0).WithDelay(300 * time.Millisecond))
	errc := make(chan error, 1)
	go func() {
		_, err := e.LabelContext(context.Background(), im, image.Conn8, seq.Binary)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the run enter the injected delay
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-errc; !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("in-flight run after Close: got %v, want ErrClosed", err)
	}
}

// TestPoolRentReturn checks the rental cycle: a returned engine is reused,
// and Return scrubs every piece of per-renter configuration.
func TestPoolRentReturn(t *testing.T) {
	p := NewPool(2)
	if p.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", p.Workers())
	}
	a, err := p.Rent()
	if err != nil {
		t.Fatalf("Rent: %v", err)
	}
	b, err := p.Rent()
	if err != nil {
		t.Fatalf("second Rent: %v", err)
	}
	if a == b {
		t.Fatal("two concurrent rentals returned the same engine")
	}
	// Dirty every per-renter knob, then return.
	a.SetObserver(obs.NewRecorder())
	a.SetFaultInjector(fault.New(1, fault.Panic, 1))
	p.Return(a)
	p.Return(b)
	if p.Idle() != 2 {
		t.Fatalf("Idle() = %d after two returns, want 2", p.Idle())
	}
	c, err := p.Rent()
	if err != nil {
		t.Fatalf("Rent after Return: %v", err)
	}
	if c != a && c != b {
		t.Fatal("Rent after Return did not reuse a pooled engine")
	}
	if c.Observer() != nil || c.fault != nil {
		t.Fatalf("rented engine not scrubbed: obs=%v fault=%v", c.Observer(), c.fault)
	}
	im := image.Generate(image.DualSpiral, 32)
	got, err := c.LabelContext(nil, im, image.Conn8, seq.Binary)
	if err != nil {
		t.Fatalf("label on rented engine: %v", err)
	}
	requireIdentical(t, got, seq.LabelBFS(im, image.Conn8, seq.Binary), "rented engine")
}

// TestPoolClose checks pool shutdown: Rent fails typed, idle engines are
// closed, a late Return closes the straggler instead of pooling it, and a
// closed engine handed to Return is dropped rather than recycled.
func TestPoolClose(t *testing.T) {
	leakcheck.Check(t)
	p := NewPool(1)
	out, err := p.Rent() // still rented when the pool closes
	if err != nil {
		t.Fatalf("Rent: %v", err)
	}
	idle, err := p.Rent()
	if err != nil {
		t.Fatalf("second Rent: %v", err)
	}
	p.Return(idle)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !idle.Closed() {
		t.Fatal("idle engine not closed by pool Close")
	}
	if _, err := p.Rent(); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("Rent after Close: got %v, want ErrClosed", err)
	}
	if out.Closed() {
		t.Fatal("rented-out engine closed while still rented")
	}
	p.Return(out)
	if !out.Closed() {
		t.Fatal("Return after pool Close did not close the engine")
	}
	if p.Idle() != 0 {
		t.Fatalf("Idle() = %d after Close, want 0", p.Idle())
	}
	p.Return(out) // closed engine: must be dropped, not pooled
	if p.Idle() != 0 {
		t.Fatalf("closed engine was pooled: Idle() = %d", p.Idle())
	}
	p.Return(nil) // and nil must be a no-op
}
