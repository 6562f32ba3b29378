package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"parimg/internal/errs"
	"parimg/internal/fault"
	"parimg/internal/fault/leakcheck"
	"parimg/internal/image"
	"parimg/internal/seq"
)

// newTestServer builds a server sized for the test host: Oversubscribe is
// raised so the requested engines×workers always fit the core budget, even
// on a single-CPU container.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Oversubscribe == 0 {
		cfg.Oversubscribe = 64
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// blockServer occupies the server's single runner with a labeling slowed
// by an injected delay (the delay site only exists on multi-worker
// engines, so callers configure EngineWorkers >= 2). It returns a channel
// carrying the blocker's error once it completes, after waiting until the
// runner has actually rented the engine — from that point the queue alone
// absorbs new requests.
func blockServer(t *testing.T, s *Server, d time.Duration) <-chan error {
	t.Helper()
	inj := fault.New(1, fault.Delay, 1).At("strip_label").OnRank(0).WithDelay(d)
	im := image.Generate(image.Cross, 64)
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Job{Image: im, Fault: inj, Name: "blocker"})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Idle() != 0 { // the pool starts with one idle engine; 0 = rented
		if time.Now().After(deadline) {
			t.Fatal("runner never picked up the blocking task")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestConcurrentRequestsPixelIdentical drives 64 concurrent requests of
// mixed patterns, modes and connectivities through an 8-runner server and
// checks every labeling pixel-for-pixel against the sequential reference,
// with a goroutine-leak check over the whole server lifecycle.
func TestConcurrentRequestsPixelIdentical(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Engines: 8, EngineWorkers: 1, QueueDepth: 64})
	defer s.Close()

	type testCase struct {
		im   *image.Image
		conn image.Connectivity
		mode seq.Mode
		want *image.Labels
		name string
	}
	patterns := image.AllPatterns()
	var cases []testCase
	for i := 0; i < 64; i++ {
		im := image.Generate(patterns[i%len(patterns)], 48)
		conn := image.Conn8
		if i%2 == 1 {
			conn = image.Conn4
		}
		mode := seq.Binary
		if i%3 == 0 {
			mode = seq.Grey
		}
		cases = append(cases, testCase{
			im: im, conn: conn, mode: mode,
			want: seq.LabelBFS(im, conn, mode),
			name: fmt.Sprintf("req%d/%v/%v", i, conn, mode),
		})
	}
	var wg sync.WaitGroup
	failures := make(chan string, len(cases))
	wg.Add(len(cases))
	for _, tc := range cases {
		go func(tc testCase) {
			defer wg.Done()
			res, err := s.Do(context.Background(), Job{
				Image: tc.im, Conn: tc.conn, Mode: tc.mode, Census: true, Name: tc.name,
			})
			if err != nil {
				failures <- fmt.Sprintf("%s: %v", tc.name, err)
				return
			}
			for i := range tc.want.Lab {
				if res.Labels.Lab[i] != tc.want.Lab[i] {
					failures <- fmt.Sprintf("%s: pixel %d: got %d, want %d",
						tc.name, i, res.Labels.Lab[i], tc.want.Lab[i])
					return
				}
			}
			if res.Metrics == nil || res.Metrics.Validate() != nil {
				failures <- fmt.Sprintf("%s: missing or invalid metrics", tc.name)
			}
		}(tc)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if got := s.agg.Count(); got != 64 {
		t.Fatalf("aggregate observed %d runs, want 64", got)
	}
}

// TestSaturationRejects fills the single runner and the one-deep queue,
// then checks the next request is rejected with ErrSaturated (never
// queued) and that the rejection is counted — while the admitted requests
// still complete.
func TestSaturationRejects(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Engines: 1, EngineWorkers: 2, QueueDepth: 1})
	defer s.Close()
	blocked := blockServer(t, s, 500*time.Millisecond)

	im := image.Generate(image.Cross, 32)
	fillerDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Job{Image: im, Name: "filler"})
		fillerDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.depthNow() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Do(context.Background(), Job{Image: im, Name: "rejected"}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-capacity Do: got %v, want ErrSaturated", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	if err := <-fillerDone; err != nil {
		t.Fatalf("queued filler failed: %v", err)
	}
	agg := s.MetricsDocs()[0]
	if agg.Counters["rejected"] != 1 {
		t.Fatalf("rejected counter = %d, want 1", agg.Counters["rejected"])
	}
}

// TestDeadlineDuringRun gives a slowed run a deadline shorter than its
// injected delay: the engine must stop at its next checkpoint and the
// request must fail with the typed ErrDeadline.
func TestDeadlineDuringRun(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Engines: 1, EngineWorkers: 2})
	defer s.Close()
	inj := fault.New(1, fault.Delay, 1).At("strip_label").OnRank(0).WithDelay(250 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, Job{Image: image.Generate(image.Cross, 64), Fault: inj})
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

// TestDeadlineInQueue expires a request's deadline while it waits behind a
// blocked runner: the scheduler must fail it with ErrDeadline when it is
// finally popped, without renting an engine for it.
func TestDeadlineInQueue(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Engines: 1, EngineWorkers: 2, QueueDepth: 4})
	defer s.Close()
	blocked := blockServer(t, s, 300*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := s.Do(ctx, Job{Image: image.Generate(image.Cross, 32), Name: "queued"})
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("queued request: got %v, want ErrDeadline", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
}

// TestCloseShutdown checks the shutdown contract: queued tasks fail with
// ErrClosed, the in-flight task completes, later Do calls fail typed, and
// no goroutine outlives Close (leakcheck covers the runners, the pool's
// engines and the context monitors).
func TestCloseShutdown(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Engines: 1, EngineWorkers: 2, QueueDepth: 4})
	blocked := blockServer(t, s, 300*time.Millisecond)
	queued := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), Job{Image: image.Generate(image.Cross, 32)})
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.depthNow() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second task never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := <-queued; !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("queued task after Close: got %v, want ErrClosed", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("in-flight task should complete through Close, got: %v", err)
	}
	if _, err := s.Do(context.Background(), Job{Image: image.Generate(image.Cross, 16)}); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("Do after Close: got %v, want ErrClosed", err)
	}
}

// TestHealth exercises the 16×16 round-trip probe.
func TestHealth(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Config{Engines: 2, EngineWorkers: 1})
	defer s.Close()
	if err := s.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	s.Close()
	if err := s.Health(context.Background()); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("Health after Close: got %v, want ErrClosed", err)
	}
}

// TestMetricsCoverage checks the acceptance property that a request's
// measured phases (queue wait, the engine phases, census) cover at least
// 99% of its wall time. Timer granularity makes single samples noisy, so
// the best of five attempts must pass — the property is about the
// instrumentation having no structural gaps, not about scheduler jitter.
func TestMetricsCoverage(t *testing.T) {
	s := newTestServer(t, Config{Engines: 1, EngineWorkers: 1})
	defer s.Close()
	im := image.RandomGrey(512, 16, 7)
	best := 0.0
	for attempt := 0; attempt < 5; attempt++ {
		res, err := s.Do(context.Background(), Job{Image: im, Mode: seq.Grey, Census: true})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		m := res.Metrics
		if m.TotalNS <= 0 {
			t.Fatalf("TotalNS = %d", m.TotalNS)
		}
		cov := float64(m.WallPhaseNS()) / float64(m.TotalNS)
		if cov > best {
			best = cov
		}
		if best >= 0.99 {
			return
		}
	}
	t.Fatalf("phase coverage %.4f < 0.99 in all attempts", best)
}

// TestMetricsDocsAllValid checks every document /metrics would serve —
// the aggregate and the per-request tail — against the schema validator,
// and spot-checks the aggregate counters.
func TestMetricsDocsAllValid(t *testing.T) {
	s := newTestServer(t, Config{Engines: 2, EngineWorkers: 1, History: 4})
	defer s.Close()
	im := image.Generate(image.DualSpiral, 32)
	for i := 0; i < 6; i++ { // more than History: the ring must evict
		if _, err := s.Do(context.Background(), Job{Image: im, Census: true}); err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
	}
	docs := s.MetricsDocs()
	if len(docs) != 1+4 {
		t.Fatalf("got %d docs, want aggregate + 4 history", len(docs))
	}
	for i, m := range docs {
		if err := m.Validate(); err != nil {
			t.Fatalf("doc %d invalid: %v", i, err)
		}
	}
	agg := docs[0]
	if agg.Image != "aggregate" || agg.Command != "imgccd" {
		t.Fatalf("aggregate doc mislabeled: %+v", agg)
	}
	if agg.Counters["documents"] != 6 {
		t.Fatalf("aggregate documents = %d, want 6", agg.Counters["documents"])
	}
	if agg.Counters["runners"] != 2 || agg.Counters["engine_workers"] != 1 {
		t.Fatalf("aggregate sizing counters wrong: %v", agg.Counters)
	}
}

// TestConfigPolicy checks the N×W core-budget policy: an explicit
// over-budget configuration is a typed input error, and defaults derive N
// from the budget.
func TestConfigPolicy(t *testing.T) {
	if _, err := New(Config{Engines: 1 << 20, EngineWorkers: 2, Oversubscribe: 1}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("over-budget config: got %v, want ErrBadInput", err)
	}
	s := newTestServer(t, Config{})
	defer s.Close()
	cfg := s.Config()
	if cfg.Engines < 1 || cfg.EngineWorkers != 1 || cfg.QueueDepth != 2*cfg.Engines {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestSchedFIFO pins the scheduler's single queue: every waiting task
// counts against one depth, and with one runner held, the other takes the
// waiting tasks oldest first.
func TestSchedFIFO(t *testing.T) {
	leakcheck.Check(t)
	newTask := func() *task { return &task{done: make(chan struct{})} }
	g1, g2 := newTask(), newTask()
	release := map[*task]chan struct{}{g1: make(chan struct{}), g2: make(chan struct{})}
	started := make(chan struct{}, len(release))
	var mu sync.Mutex
	var order []*task
	s := newSched(2, 8, func(tk *task) {
		if r, ok := release[tk]; ok {
			started <- struct{}{}
			<-r
		} else {
			mu.Lock()
			order = append(order, tk)
			mu.Unlock()
		}
		close(tk.done)
	})
	defer s.close()
	defer func() {
		for _, r := range release {
			close(r)
		}
	}()
	for _, g := range []*task{g1, g2} {
		if err := s.submit(g); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started // both runners are held
	tasks := make([]*task, 4)
	for i := range tasks {
		tasks[i] = newTask()
		if err := s.submit(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.depthNow(); d != len(tasks) {
		t.Fatalf("depth = %d, want %d", d, len(tasks))
	}
	release[g1] <- struct{}{} // one runner drains the queue alone
	for _, tk := range tasks {
		<-tk.done
	}
	mu.Lock()
	defer mu.Unlock()
	for i, tk := range order {
		if tk != tasks[i] {
			t.Fatalf("task %d ran in position %d", slices.Index(tasks, tk), i)
		}
	}
}

// TestNilAndBadInput checks the pre-queue validation path.
func TestNilAndBadInput(t *testing.T) {
	s := newTestServer(t, Config{Engines: 1, EngineWorkers: 1})
	defer s.Close()
	if _, err := s.Do(context.Background(), Job{}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("nil image: got %v, want ErrBadInput", err)
	}
	bad := &image.Image{N: 3, Pix: make([]uint32, 4)}
	if _, err := s.Do(context.Background(), Job{Image: bad}); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("malformed image: got %v, want ErrBadInput", err)
	}
}
