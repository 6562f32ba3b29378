package par

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// requireCleanAfterFault re-runs the engine without faults and checks the
// labeling is pixel-identical to the sequential reference — the "no partial
// writes survive the error path" half of the chaos contract.
func requireCleanAfterFault(t *testing.T, e *Engine, im *image.Image) {
	t.Helper()
	e.SetFaultInjector(nil)
	got, err := e.LabelContext(nil, im, image.Conn8, seq.Binary)
	if err != nil {
		t.Fatalf("clean run after fault: %v", err)
	}
	requireIdentical(t, got, seq.LabelBFS(im, image.Conn8, seq.Binary), "clean run after fault")
}

// TestInjectedPanicEveryPhase plants a deterministic panic in each
// instrumented phase of the labeling and the histogram: every one must come
// back as a typed ErrAborted wrapping the injected fault, with the engine
// immediately reusable.
func TestInjectedPanicEveryPhase(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 64)
	grey := image.RandomGrey(64, 16, 1)
	histogram := func(e *Engine) error {
		_, err := e.HistogramContext(nil, grey, 16)
		return err
	}
	cases := []struct {
		site string
		run  func(e *Engine) error
	}{
		{"strip_label", nil},
		{"border_merge", nil},
		{"relabel", nil},
		{"tally", histogram},
		{"tree_merge", histogram},
	}
	for _, c := range cases {
		t.Run(c.site, func(t *testing.T) {
			e := NewEngine(4)
			e.SetFaultInjector(fault.New(1, fault.Panic, 1).At(c.site).OnRank(1))
			var err error
			if c.run != nil {
				err = c.run(e)
			} else {
				_, err = e.LabelContext(nil, im, image.Conn8, seq.Binary)
			}
			if !errors.Is(err, errs.ErrAborted) {
				t.Fatalf("site %s: err = %v, want ErrAborted", c.site, err)
			}
			var inj *fault.Injected
			if !errors.As(err, &inj) {
				t.Fatalf("site %s: err %v does not wrap the injected fault", c.site, err)
			}
			if inj.Site.Name != c.site {
				t.Errorf("fault fired at %v, want site %s", inj.Site, c.site)
			}
			requireCleanAfterFault(t, e, im)
		})
	}
}

func TestLabelContextPreCanceled(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(4)
	im := image.Generate(image.Cross, 64)
	if _, err := e.LabelContext(ctx, im, image.Conn8, seq.Binary); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	requireCleanAfterFault(t, e, im)
}

// TestLabelContextDeadlineMidRun forces the deadline to land mid-run by
// planting a delay fault longer than the context timeout inside the first
// phase, so the remaining checkpoints must observe the expiry.
func TestLabelContextDeadlineMidRun(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 128)
	e := NewEngine(4)
	e.SetFaultInjector(fault.New(1, fault.Delay, 1).
		At("strip_label").OnRank(0).WithDelay(50 * time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err := e.LabelContext(ctx, im, image.Conn8, seq.Binary)
	cancel()
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to match context.DeadlineExceeded", err)
	}
	var re *errs.RunError
	if !errors.As(err, &re) || re.After <= 0 {
		t.Fatalf("err %v lacks a positive After duration", err)
	}
	requireCleanAfterFault(t, e, im)
}

func TestHistogramContextDeadlineMidRun(t *testing.T) {
	leakcheck.Check(t)
	im := image.RandomGrey(128, 16, 2)
	e := NewEngine(4)
	e.SetFaultInjector(fault.New(1, fault.Delay, 1).
		At("tally").OnRank(0).WithDelay(50 * time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := e.HistogramContext(ctx, im, 16); !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	e.SetFaultInjector(nil)
	h, err := e.HistogramContext(nil, im, 16)
	if err != nil {
		t.Fatalf("clean histogram after deadline: %v", err)
	}
	want, err := im.Histogram(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("bucket %d: got %d, want %d after aborted run", i, h[i], want[i])
		}
	}
}

// TestInjectedNoShowReleasedByContext parks one worker mid-phase; the
// caller's deadline must release it and the call must fail with ErrDeadline,
// not hang.
func TestInjectedNoShowReleasedByContext(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.FourSquares, 128)
	e := NewEngine(4)
	e.SetFaultInjector(fault.New(1, fault.NoShow, 1).At("strip_label").OnRank(2))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.LabelContext(ctx, im, image.Conn8, seq.Binary)
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("no-show release took %v", elapsed)
	}
	requireCleanAfterFault(t, e, im)
}

// TestInjectedNoShowWithoutContextDegradesToPanic mirrors the bdm behavior:
// with no context, nothing could release a parked worker, so the injector
// must panic instead.
func TestInjectedNoShowWithoutContextDegradesToPanic(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.Cross, 64)
	e := NewEngine(4)
	e.SetFaultInjector(fault.New(1, fault.NoShow, 1).At("strip_label").OnRank(1))
	_, err := e.LabelContext(nil, im, image.Conn8, seq.Binary)
	if !errors.Is(err, errs.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if !strings.Contains(err.Error(), "no-show without context") {
		t.Errorf("error %q does not explain the degraded no-show", err)
	}
	requireCleanAfterFault(t, e, im)
}

// TestProbabilisticChaosSweep runs a randomized (but seeded, hence
// reproducible) sweep: every run either succeeds with the exact sequential
// labeling or fails with a typed runtime error — never a wrong answer, never
// an unclassified error, never a leak.
func TestProbabilisticChaosSweep(t *testing.T) {
	leakcheck.Check(t)
	im := image.Generate(image.DualSpiral, 96)
	want := seq.LabelBFS(im, image.Conn8, seq.Binary)
	for seed := uint64(1); seed <= 20; seed++ {
		e := NewEngine(3)
		e.SetFaultInjector(fault.New(seed, fault.Panic, 0.3))
		got, err := e.LabelContext(nil, im, image.Conn8, seq.Binary)
		if err != nil {
			if !errors.Is(err, errs.ErrAborted) {
				t.Fatalf("seed %d: untyped error %v", seed, err)
			}
			requireCleanAfterFault(t, e, im)
			continue
		}
		requireIdentical(t, got, want, "fault-free run in sweep")
	}
}
