package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// smallPerLarge fixes serve's request mix: nine small bodies per large
// one, so 10% of requests post a large body.
const smallPerLarge = 9

// request is one entry of a request schedule: when it is due, as an offset
// from the start of the loop, and which body it posts.
type request struct {
	Due  time.Duration
	Body int
}

// blockSize returns the length of one balanced block of a schedule over
// small and large bodies.
func blockSize(small, large int) int {
	if large == 0 {
		return small
	}
	return large * (1 + smallPerLarge)
}

// schedule draws n requests at a fixed rate (0 for a closed loop, where
// due times are unused) from the seed. Bodies 0..small-1 are small and
// small..small+large-1 large. The requests come in balanced blocks — each
// holds every large body once and smallPerLarge small bodies per large
// one, cycling through the small bodies — shuffled within the block, so
// every block carries the same work and any stretch of whole blocks is
// comparable with any other.
func schedule(seed uint64, n int, rate float64, small, large int) []request {
	r := subSeed(seed, 1000)
	next := func() uint64 { // xorshift64*
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		return r * 0x2545f4914f6cdd1d
	}
	block := make([]int, 0, blockSize(small, large))
	nextSmall := 0
	reqs := make([]request, n)
	for i := range reqs {
		if i%cap(block) == 0 {
			block = block[:0]
			for b := 0; b < large; b++ {
				block = append(block, small+b)
			}
			for len(block) < cap(block) {
				block = append(block, nextSmall)
				nextSmall = (nextSmall + 1) % small
			}
			for k := len(block) - 1; k > 0; k-- {
				j := int(next() % uint64(k+1))
				block[k], block[j] = block[j], block[k]
			}
		}
		reqs[i].Body = block[i%cap(block)]
		if rate > 0 {
			reqs[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return reqs
}

// sample is the timeline of one request, as offsets from the start of the
// loop: when it was due, when the generator handed it to the connection
// pool, when a connection started sending it, and when its response was
// complete. A closed loop leaves Due and Dispatched at the send time.
type sample struct {
	Due, Dispatched, Sent, Done time.Duration
	Err                         error
}

// Latency is the request's latency from its due time, so a stall delays
// every request queued behind it (no coordinated omission).
func (s *sample) Latency() time.Duration { return s.Done - s.Due }

// ConnWait is how long the request waited for a free connection.
func (s *sample) ConnWait() time.Duration { return s.Sent - s.Dispatched }

// Late is how late the generator itself dispatched the request.
func (s *sample) Late() time.Duration { return s.Dispatched - s.Due }

// openLoop sends every request at its due time over conns connections,
// whatever the system's progress: a request that finds every connection
// busy waits in an unbounded queue, so the generator never slows down.
// send(conn, i) issues request i on connection conn and returns once the
// response is complete. It returns the loop's start and every request's
// timeline.
func openLoop(reqs []request, conns int, send func(conn, i int) error) (time.Time, []sample) {
	samples := make([]sample, len(reqs))
	// Sized to the number of sends, so a stalled system can never block
	// the generator.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.Sent = time.Since(start)
				s.Err = send(c, i)
				s.Done = time.Since(start)
			}
		}(c)
	}
	for i, r := range reqs {
		if d := r.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].Due = r.Due
		samples[i].Dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return start, samples
}

// closedLoop sends every request of reqs over conns clients, each sending
// the next request as soon as its previous response is complete, and
// returns the requests' timelines in schedule order.
func closedLoop(reqs []request, conns int, send func(conn, i int) error) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				s := &samples[i]
				s.Sent = time.Since(start)
				s.Due, s.Dispatched = s.Sent, s.Sent
				s.Err = send(c, i)
				s.Done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return samples
}
