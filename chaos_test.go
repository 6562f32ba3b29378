package parimg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parimg/internal/fault"
	"parimg/internal/fault/leakcheck"
	"parimg/internal/serve"
	"parimg/internal/stream"
)

// The chaos matrix: every fault class (panic, delay, no-show, cancel,
// deadline) against both backends (the bdm simulator and the host-parallel
// engine). Each cell asserts the documented sentinel and that a subsequent
// fault-free call is pixel-identical to the sequential reference — injected
// faults must never corrupt reusable state.

// requireSimCleanAfterFault runs a fault-free Label on the simulator and
// compares it against the sequential reference.
func requireSimCleanAfterFault(t *testing.T, sim *Simulator, im *Image) {
	t.Helper()
	sim.m.SetFaultInjector(nil)
	res, err := sim.Label(context.Background(), im, LabelOptions{})
	if err != nil {
		t.Fatalf("clean sim run after fault: %v", err)
	}
	want := must(LabelSequential(im, Conn8, Binary))
	for i := range want.Lab {
		if res.Labels.Lab[i] != want.Lab[i] {
			t.Fatalf("pixel %d: sim label %d, want %d after aborted run", i, res.Labels.Lab[i], want.Lab[i])
		}
	}
}

// requireParCleanAfterFault does the same for a host-parallel engine.
func requireParCleanAfterFault(t *testing.T, eng *ParallelEngine, im *Image) {
	t.Helper()
	eng.SetFaultInjector(nil)
	got, err := Label(context.Background(), im, LabelOptions{})
	if err != nil {
		t.Fatalf("clean par run after fault: %v", err)
	}
	want := must(LabelSequential(im, Conn8, Binary))
	for i := range want.Lab {
		if got.Lab[i] != want.Lab[i] {
			t.Fatalf("pixel %d: par label %d, want %d after aborted run", i, got.Lab[i], want.Lab[i])
		}
	}
}

func TestChaosMatrixSimulator(t *testing.T) {
	leakcheck.Check(t)
	im := must(GeneratePattern(DualSpiral, 64))
	sim, err := NewSimulator(4, CM5)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	bg := context.Background()

	t.Run("panic", func(t *testing.T) {
		sim.m.SetFaultInjector(fault.New(1, fault.Panic, 1).At("sync").OnRank(1))
		_, err := sim.Label(bg, im, LabelOptions{})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		var inj *fault.Injected
		if !errors.As(err, &inj) {
			t.Fatalf("err %v does not wrap the injected fault", err)
		}
		requireSimCleanAfterFault(t, sim, im)
	})

	t.Run("delay", func(t *testing.T) {
		// A delay is a perturbation, not a failure: the run must succeed
		// and the labeling must still be exact.
		in := fault.New(1, fault.Delay, 1).At("sync").OnRank(0).OnRound(1).
			WithDelay(2 * time.Millisecond)
		sim.m.SetFaultInjector(in)
		res, err := sim.Label(bg, im, LabelOptions{})
		sim.m.SetFaultInjector(nil)
		if err != nil {
			t.Fatalf("delay fault must not fail the run: %v", err)
		}
		if in.Injections() == 0 {
			t.Error("delay fault never fired")
		}
		want := must(LabelSequential(im, Conn8, Binary))
		for i := range want.Lab {
			if res.Labels.Lab[i] != want.Lab[i] {
				t.Fatalf("pixel %d differs under delay fault", i)
			}
		}
	})

	t.Run("no-show", func(t *testing.T) {
		// A simulated processor that never reaches the barrier is the
		// watchdog's case: the run must abort with ErrDeadline naming the
		// missing rank instead of hanging.
		sim.SetWatchdog(50 * time.Millisecond)
		defer sim.SetWatchdog(0)
		sim.m.SetFaultInjector(fault.New(1, fault.NoShow, 1).At("barrier").OnRank(2))
		_, err := sim.Label(bg, im, LabelOptions{})
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline from the watchdog", err)
		}
		requireSimCleanAfterFault(t, sim, im)
	})

	t.Run("cancel", func(t *testing.T) {
		// One long injected delay gives the asynchronous cancel a window
		// to land mid-run.
		sim.m.SetFaultInjector(fault.New(1, fault.Delay, 1).
			At("sync").OnRank(0).OnRound(1).WithDelay(50 * time.Millisecond))
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		defer timer.Stop()
		defer cancel()
		_, err := sim.Label(ctx, im, LabelOptions{})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want to match context.Canceled too", err)
		}
		requireSimCleanAfterFault(t, sim, im)
	})

	t.Run("deadline", func(t *testing.T) {
		sim.m.SetFaultInjector(fault.New(1, fault.Delay, 1).
			At("sync").OnRank(0).OnRound(1).WithDelay(50 * time.Millisecond))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		_, err := sim.Label(ctx, im, LabelOptions{})
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		var re *RunError
		if !errors.As(err, &re) || re.After <= 0 {
			t.Fatalf("err %v lacks a positive After duration", err)
		}
		requireSimCleanAfterFault(t, sim, im)
	})
}

func TestChaosMatrixParallel(t *testing.T) {
	leakcheck.Check(t)
	im := must(GeneratePattern(DualSpiral, 64))

	t.Run("panic", func(t *testing.T) {
		eng := NewParallelEngine(4)
		eng.SetFaultInjector(fault.New(1, fault.Panic, 1).At("strip_label").OnRank(1))
		out := must(NewLabels(im.N))
		_, err := eng.LabelIntoContext(context.Background(), im, Conn8, Binary, out)
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		var inj *fault.Injected
		if !errors.As(err, &inj) {
			t.Fatalf("err %v does not wrap the injected fault", err)
		}
		requireParCleanAfterFault(t, eng, im)
	})

	t.Run("delay", func(t *testing.T) {
		eng := NewParallelEngine(4)
		in := fault.New(1, fault.Delay, 1).At("strip_label").OnRank(0).
			WithDelay(2 * time.Millisecond)
		eng.SetFaultInjector(in)
		out := must(NewLabels(im.N))
		if _, err := eng.LabelIntoContext(context.Background(), im, Conn8, Binary, out); err != nil {
			t.Fatalf("delay fault must not fail the run: %v", err)
		}
		if in.Injections() == 0 {
			t.Error("delay fault never fired")
		}
		want := must(LabelSequential(im, Conn8, Binary))
		for i := range want.Lab {
			if out.Lab[i] != want.Lab[i] {
				t.Fatalf("pixel %d differs under delay fault", i)
			}
		}
	})

	t.Run("no-show", func(t *testing.T) {
		// A parked worker has no barrier watchdog on the host-parallel
		// backend; the caller's deadline is what releases it.
		eng := NewParallelEngine(4)
		eng.SetFaultInjector(fault.New(1, fault.NoShow, 1).At("strip_label").OnRank(2))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		out := must(NewLabels(im.N))
		if _, err := eng.LabelIntoContext(ctx, im, Conn8, Binary, out); !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		requireParCleanAfterFault(t, eng, im)
	})

	t.Run("cancel", func(t *testing.T) {
		eng := NewParallelEngine(4)
		eng.SetFaultInjector(fault.New(1, fault.Delay, 1).
			At("strip_label").OnRank(0).WithDelay(50 * time.Millisecond))
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		defer timer.Stop()
		defer cancel()
		out := must(NewLabels(im.N))
		_, err := eng.LabelIntoContext(ctx, im, Conn8, Binary, out)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		requireParCleanAfterFault(t, eng, im)
	})

	t.Run("deadline", func(t *testing.T) {
		eng := NewParallelEngine(4)
		eng.SetFaultInjector(fault.New(1, fault.Delay, 1).
			At("strip_label").OnRank(0).WithDelay(50 * time.Millisecond))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		out := must(NewLabels(im.N))
		_, err := eng.LabelIntoContext(ctx, im, Conn8, Binary, out)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		var re *RunError
		if !errors.As(err, &re) || re.After <= 0 {
			t.Fatalf("err %v lacks a positive After duration", err)
		}
		requireParCleanAfterFault(t, eng, im)
	})
}

// TestChaosMatrixServer is the serving-runtime row of the chaos matrix:
// every fault class lands on an engine rented by a serve.Server runner, and
// each cell asserts the documented sentinel plus that the server keeps
// serving pixel-exact labelings afterwards — a panicking worker must cost
// one request, never the process or the pool.
func TestChaosMatrixServer(t *testing.T) {
	leakcheck.Check(t)
	im := must(GeneratePattern(DualSpiral, 64))
	want := must(LabelSequential(im, Conn8, Binary))
	// One runner, two strip workers (the fault sites only exist on
	// multi-worker engines), oversubscribed so the config passes the core
	// budget policy on any host.
	srv, err := serve.New(serve.Config{Engines: 1, EngineWorkers: 2, Oversubscribe: 64, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	requireServerHealthy := func(t *testing.T) {
		t.Helper()
		res, err := srv.Do(context.Background(), serve.Job{Image: im})
		if err != nil {
			t.Fatalf("clean request after fault: %v", err)
		}
		for i := range want.Lab {
			if res.Labels.Lab[i] != want.Lab[i] {
				t.Fatalf("pixel %d: served label %d, want %d after fault", i, res.Labels.Lab[i], want.Lab[i])
			}
		}
	}

	t.Run("panic", func(t *testing.T) {
		inj := fault.New(1, fault.Panic, 1).At("strip_label").OnRank(1)
		_, err := srv.Do(context.Background(), serve.Job{Image: im, Fault: inj})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		var injected *fault.Injected
		if !errors.As(err, &injected) {
			t.Fatalf("err %v does not wrap the injected fault", err)
		}
		requireServerHealthy(t)
	})

	t.Run("delay", func(t *testing.T) {
		inj := fault.New(1, fault.Delay, 1).At("strip_label").OnRank(0).
			WithDelay(2 * time.Millisecond)
		res, err := srv.Do(context.Background(), serve.Job{Image: im, Fault: inj})
		if err != nil {
			t.Fatalf("delay fault must not fail the request: %v", err)
		}
		if inj.Injections() == 0 {
			t.Error("delay fault never fired")
		}
		for i := range want.Lab {
			if res.Labels.Lab[i] != want.Lab[i] {
				t.Fatalf("pixel %d differs under delay fault", i)
			}
		}
	})

	t.Run("no-show", func(t *testing.T) {
		inj := fault.New(1, fault.NoShow, 1).At("strip_label").OnRank(1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := srv.Do(ctx, serve.Job{Image: im, Fault: inj}); !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		requireServerHealthy(t)
	})

	t.Run("cancel", func(t *testing.T) {
		inj := fault.New(1, fault.Delay, 1).At("strip_label").OnRank(0).
			WithDelay(50 * time.Millisecond)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		defer timer.Stop()
		defer cancel()
		if _, err := srv.Do(ctx, serve.Job{Image: im, Fault: inj}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		requireServerHealthy(t)
	})

	t.Run("deadline", func(t *testing.T) {
		inj := fault.New(1, fault.Delay, 1).At("strip_label").OnRank(0).
			WithDelay(50 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		if _, err := srv.Do(ctx, serve.Job{Image: im, Fault: inj}); !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		requireServerHealthy(t)
	})
}

// TestChaosMatrixStream is the out-of-core row of the chaos matrix: an
// injected crash at a band commit, resume from the surviving checkpoint,
// and a torn checkpoint record — the streaming pipeline's documented
// fault classes, each asserted against its typed sentinel, with the
// resumed output compared byte for byte against an uninterrupted run —
// and faults in the band workers: a delay, a panic and a crash. Its 7-row
// bands label as bands in flight, one per core, so the worker rows need
// GOMAXPROCS >= 2 to overlap bands; make chaos-short runs them at one and
// at four procs.
func TestChaosMatrixStream(t *testing.T) {
	leakcheck.Check(t)
	im := must(GeneratePattern(DualSpiral, 64))
	var pgm bytes.Buffer
	fmt.Fprintf(&pgm, "P5\n%d %d\n255\n", im.N, im.N)
	for _, v := range im.Pix {
		pgm.WriteByte(byte(v))
	}
	base := stream.Options{BandRows: 7, TopK: 5}

	var refOut bytes.Buffer
	ref, err := stream.Label(bytes.NewReader(pgm.Bytes()), &refOut, base)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("crash-resume", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		crash := base
		crash.Checkpoint = ckpt
		crash.CheckpointEvery = 2
		crash.Fault = fault.New(1, fault.Crash, 1).At("band_commit").OnRound(6)
		_, err := stream.Label(bytes.NewReader(pgm.Bytes()), nil, crash)
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		var injected *fault.Injected
		if !errors.As(err, &injected) {
			t.Fatalf("err %v does not wrap the injected fault", err)
		}

		resume := base
		resume.Checkpoint = ckpt
		resume.Resume = true
		var out bytes.Buffer
		res, err := stream.Label(bytes.NewReader(pgm.Bytes()), &out, resume)
		if err != nil {
			t.Fatalf("resume after crash: %v", err)
		}
		if res.Components != ref.Components || res.Foreground != ref.Foreground {
			t.Fatalf("resumed census %d/%d, want %d/%d",
				res.Components, res.Foreground, ref.Components, ref.Foreground)
		}
		if !bytes.Equal(out.Bytes(), refOut.Bytes()) {
			t.Fatal("resumed label PGM differs from the uninterrupted run")
		}
	})

	// With bands in flight, band 0's worker sleeps while the others label
	// bands 1.. ahead of it; the commit must still take the bands in band
	// order, so the census, the label PGM and the final checkpoint record
	// equal an undisturbed run's. At -cpu 1 one band is in flight, and the
	// row checks only that a delayed worker changes nothing.
	t.Run("worker-delay", func(t *testing.T) {
		dir := t.TempDir()
		run := func(name string, inj *fault.Injector) (string, []byte, []byte) {
			o := base
			o.Checkpoint = filepath.Join(dir, name)
			o.Fault = inj
			var out bytes.Buffer
			res, err := stream.Label(bytes.NewReader(pgm.Bytes()), &out, o)
			if err != nil {
				t.Fatalf("%s run: %v", name, err)
			}
			record, err := os.ReadFile(o.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v", *res), out.Bytes(), record
		}
		wantRes, wantOut, wantRecord := run("plain.ckpt", nil)
		gotRes, gotOut, gotRecord := run("delayed.ckpt",
			fault.New(1, fault.Delay, 1).At("band_label").OnRound(1).WithDelay(20*time.Millisecond))
		if gotRes != wantRes {
			t.Fatalf("delayed census\n %s\nwant\n %s", gotRes, wantRes)
		}
		if !bytes.Equal(gotOut, wantOut) {
			t.Fatal("delayed label PGM differs from the undisturbed run")
		}
		if !bytes.Equal(gotRecord, wantRecord) {
			t.Fatal("delayed final checkpoint record differs from the undisturbed run")
		}
	})

	// A band worker has no caller to unwind to: its panic comes back from
	// Label as a typed ErrAborted, and the leak check sees every worker
	// gone. At -cpu 1 the one band worker panics the same way.
	t.Run("worker-panic", func(t *testing.T) {
		o := base
		o.Fault = fault.New(1, fault.Panic, 1).At("band_label").OnRound(4)
		_, err := stream.Label(bytes.NewReader(pgm.Bytes()), io.Discard, o)
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		var injected *fault.Injected
		if !errors.As(err, &injected) || injected.Site.Name != "band_label" {
			t.Fatalf("err %v does not wrap the injected band_label fault", err)
		}
	})

	// A crash in a band worker abandons the run once the commit reaches
	// its band, and the bands labeled ahead of it are lost; resuming from
	// the last record gives the uninterrupted output. At -cpu 1 nothing is
	// labeled ahead, and the row is a crash-resume at the worker's site.
	t.Run("worker-crash-resume", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		crash := base
		crash.Checkpoint = ckpt
		crash.CheckpointEvery = 2
		crash.Fault = fault.New(1, fault.Crash, 1).At("band_label").OnRound(6)
		_, err := stream.Label(bytes.NewReader(pgm.Bytes()), nil, crash)
		var injected *fault.Injected
		if !errors.Is(err, ErrAborted) || !errors.As(err, &injected) || injected.Site.Name != "band_label" {
			t.Fatalf("err = %v, want ErrAborted wrapping the injected band_label fault", err)
		}

		resume := base
		resume.Checkpoint = ckpt
		resume.Resume = true
		var out bytes.Buffer
		res, err := stream.Label(bytes.NewReader(pgm.Bytes()), &out, resume)
		if err != nil {
			t.Fatalf("resume after crash: %v", err)
		}
		if res.ResumedFrom != 4 {
			t.Fatalf("resumed from band %d, want 4 (the last record before band 5)", res.ResumedFrom)
		}
		if res.Components != ref.Components || res.Foreground != ref.Foreground {
			t.Fatalf("resumed census %d/%d, want %d/%d",
				res.Components, res.Foreground, ref.Components, ref.Foreground)
		}
		if !bytes.Equal(out.Bytes(), refOut.Bytes()) {
			t.Fatal("resumed label PGM differs from the uninterrupted run")
		}
	})

	t.Run("torn-checkpoint", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		full := base
		full.Checkpoint = ckpt
		if _, err := stream.Label(bytes.NewReader(pgm.Bytes()), nil, full); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt, data[:len(data)*2/3], 0o644); err != nil {
			t.Fatal(err)
		}
		resume := base
		resume.Checkpoint = ckpt
		resume.Resume = true
		if _, err := stream.Label(bytes.NewReader(pgm.Bytes()), nil, resume); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
		}
	})

	t.Run("foreign-checkpoint", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		full := base
		full.Checkpoint = ckpt
		if _, err := stream.Label(bytes.NewReader(pgm.Bytes()), nil, full); err != nil {
			t.Fatal(err)
		}
		resume := base
		resume.BandRows = 9 // a different decomposition than the record's
		resume.Checkpoint = ckpt
		resume.Resume = true
		if _, err := stream.Label(bytes.NewReader(pgm.Bytes()), nil, resume); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
		}
	})
}

// TestLabelContextThroughPublicAPI exercises the package-level context entry
// points end to end: pre-canceled contexts must fail fast with ErrCanceled
// on both backends, without running any labeling work.
func TestLabelContextThroughPublicAPI(t *testing.T) {
	leakcheck.Check(t)
	im := must(GeneratePattern(Cross, 64))
	grey := must(RandomGrey(64, 16, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Label(ctx, im, LabelOptions{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Label: err = %v, want ErrCanceled", err)
	}
	if _, err := Histogram(ctx, grey, 16); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Histogram: err = %v, want ErrCanceled", err)
	}
	sim, err := NewSimulator(4, CM5)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Label(ctx, im, LabelOptions{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Simulator.Label: err = %v, want ErrCanceled", err)
	}
	if _, err := sim.Histogram(ctx, grey, 16); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Simulator.Histogram: err = %v, want ErrCanceled", err)
	}
}
