package serve

import (
	"context"
	"sync"
	"time"

	"parimg/internal/errs"
	"parimg/internal/obs"
)

// task is one accepted request traveling through the scheduler: the
// submitting goroutine blocks on done, a runner fills res or err.
type task struct {
	ctx  context.Context
	job  Job
	enq  time.Time // when submit accepted the task; queue_wait = pop - enq
	res  *Result
	err  error
	done chan struct{}
}

// sched is the bounded task queue: one FIFO shared by every runner, so an
// idle runner always takes the oldest waiting task. A single mutex +
// condvar serializes queue operations — task bodies (whole-image
// labelings, ~milliseconds) outweigh a queue op (~nanoseconds) by many
// orders of magnitude, so contention on the lock is not the bottleneck.
type sched struct {
	run      func(*task)
	maxQueue int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*task // FIFO of queued (not yet running) tasks
	closed bool

	wg sync.WaitGroup
}

// newSched starts `runners` runner goroutines draining the queue into run.
func newSched(runners, maxQueue int, run func(*task)) *sched {
	s := &sched{run: run, maxQueue: maxQueue}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(runners)
	for i := 0; i < runners; i++ {
		go s.runner()
	}
	return s
}

// submit appends t to the queue. Rejects with ErrSaturated when maxQueue
// tasks are already waiting, and with ErrClosed after close; in both cases
// the caller owns the task again and done is never closed.
func (s *sched) submit(t *task) error {
	t.enq = time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errs.Closed("serve.Do")
	}
	if len(s.queue) >= s.maxQueue {
		s.mu.Unlock()
		return saturated()
	}
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	// One Signal suffices: any idle runner can run any task.
	s.cond.Signal()
	return nil
}

// runner is one scheduling loop: take the oldest task, sleep on the
// condvar while the queue is empty, exit once closed.
func (s *sched) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		t := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.run(t)
	}
}

// depthNow returns the current number of queued tasks.
func (s *sched) depthNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// close rejects future submissions, fails every queued-but-unstarted task
// with ErrClosed, and waits for all runners (including any mid-task) to
// exit.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	orphans := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.cond.Broadcast()
	for _, t := range orphans {
		t.err = errs.Closed("serve.Do")
		close(t.done)
	}
	s.wg.Wait()
}

// history is a bounded ring of the most recent per-request metrics
// documents, for the /metrics endpoint's per-request tail.
type history struct {
	mu   sync.Mutex
	ring []*obs.Metrics
	next int
	full bool
}

func newHistory(size int) *history {
	return &history{ring: make([]*obs.Metrics, size)}
}

// add records one document, evicting the oldest when the ring is full.
func (h *history) add(m *obs.Metrics) {
	h.mu.Lock()
	h.ring[h.next] = m
	h.next = (h.next + 1) % len(h.ring)
	if h.next == 0 {
		h.full = true
	}
	h.mu.Unlock()
}

// recent returns the retained documents, oldest first.
func (h *history) recent() []*obs.Metrics {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*obs.Metrics
	if h.full {
		out = append(out, h.ring[h.next:]...)
	}
	out = append(out, h.ring[:h.next]...)
	return out
}
