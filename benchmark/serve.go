package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"parimg/internal/obs"
	"parimg/internal/serve"
)

// outputHash fingerprints a response body as it is read.
type outputHash interface {
	io.Writer
	Sum32() uint32
}

// server is one serve.Server behind a loopback HTTP server.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startServer builds a server with the default Config and waits for its
// /healthz round trip to answer 200.
func startServer(cl *http.Client) (*server, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, ts: httptest.NewServer(srv.Handler())}
	resp, err := cl.Get(s.ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close()
}

// metrics scrapes /metrics: the aggregate document, then the most recent
// per-request documents.
func (s *server) metrics(cl *http.Client) ([]*obs.Metrics, error) {
	resp, err := cl.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var docs []*obs.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("/metrics returned no documents")
	}
	return docs, nil
}

// clients returns k HTTP clients of one keep-alive connection each.
func clients(k int) []*http.Client {
	cls := make([]*http.Client, k)
	for i := range cls {
		cls[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return cls
}

func closeClients(cls []*http.Client) {
	for _, cl := range cls {
		cl.CloseIdleConnections()
	}
}

// throughput is what a stretch of closed-loop requests achieved.
type throughput struct {
	reqs int
	secs float64
	px   int64
}

func (t throughput) rps() float64  { return ratio(float64(t.reqs), t.secs) }
func (t throughput) mpix() float64 { return ratio(float64(t.px), t.secs) / 1e6 }

// plus adds two stretches' work and time.
func (t throughput) plus(o throughput) throughput {
	return throughput{reqs: t.reqs + o.reqs, secs: t.secs + o.secs, px: t.px + o.px}
}

// throughput measures the requests samples[i] of reqs[i], from the first
// send to the last response.
func (c *child) throughput(samples []sample, reqs []request) throughput {
	if len(samples) == 0 {
		return throughput{}
	}
	first, last := samples[0].Sent, samples[0].Done
	t := throughput{reqs: len(samples)}
	for i, sm := range samples {
		first, last = min(first, sm.Sent), max(last, sm.Done)
		if sm.Err == nil {
			t.px += c.m.Inputs[reqs[i].Body].Pixels
		}
	}
	t.secs = (last - first).Seconds()
	return t
}

// serveAgg accumulates the /metrics aggregate's growth over the open-loop
// windows of a traced pass.
type serveAgg struct {
	phaseNS           map[string]float64
	totalNS, rejected float64
	last              []*obs.Metrics // the last scrape
}

func (a *serveAgg) add(before, after []*obs.Metrics) {
	for _, p := range after[0].Phases {
		a.phaseNS[p.Name] += float64(p.WallNS - before[0].WallPhaseNS(p.Name))
	}
	a.totalNS += float64(after[0].TotalNS - before[0].TotalNS)
	a.rejected += float64(after[0].Counters["rejected"] - before[0].Counters["rejected"])
	a.last = after
}

// serve drives serve.Server.Handler() behind a loopback HTTP server,
// interleaving windows of an open loop at a fixed rate, of closed-loop
// saturation, and of a closed loop against a one-core server.
func (c *child) serve() error {
	bodies := make([][]byte, len(c.m.Inputs))
	small := 0
	for i, in := range c.m.Inputs {
		b, err := os.ReadFile(in.File)
		if err != nil {
			return err
		}
		bodies[i] = b
		if !in.Large {
			small++
		}
	}
	large := len(bodies) - small
	w := c.m.Workers

	post := func(cl *http.Client, url string, i int) error {
		in := &c.m.Inputs[i]
		resp, err := cl.Post(url+"/label?"+in.Query, "image/x-portable-graymap", bytes.NewReader(bodies[i]))
		if err != nil {
			c.rep.fail(in.Key, err)
			return err
		}
		defer resp.Body.Close()
		var h outputHash = crc32.New(castagnoli)
		if in.Large {
			h = newPGMHash()
		}
		if _, err := io.Copy(h, resp.Body); err != nil {
			c.rep.fail(in.Key, err)
			return err
		}
		if resp.StatusCode != http.StatusOK {
			err := fmt.Errorf("HTTP %d", resp.StatusCode)
			c.rep.fail(in.Key, err)
			return err
		}
		c.rep.ok(in.Key, h.Sum32())
		return nil
	}

	setup := func() time.Duration {
		start := time.Now()
		cls := clients(1)
		defer closeClients(cls)
		s, err := startServer(cls[0])
		if err != nil {
			c.rep.fail(c.m.Inputs[0].Key, err)
			return time.Since(start)
		}
		post(cls[0], s.ts.URL, 0)
		d := time.Since(start)
		s.close()
		return d
	}

	// The main server, and a one-core server (built under GOMAXPROCS 1, so
	// with one engine) for the one-core windows. Both see every body once
	// before measuring.
	cls, oneCls := clients(w), clients(1)
	defer closeClients(cls)
	defer closeClients(oneCls)
	s, err := startServer(cls[0])
	if err != nil {
		return err
	}
	defer s.close()
	var one *server
	withProcs(1, func() { one, err = startServer(oneCls[0]) })
	if err != nil {
		return err
	}
	defer one.close()
	for i := range bodies {
		post(cls[0], s.ts.URL, i)
		withProcs(1, func() { post(oneCls[0], one.ts.URL, i) })
	}

	// Every window is two balanced blocks of a schedule, so every window
	// carries the same work; windows take successive segments.
	win := 2 * blockSize(small, large)
	const segments = 64
	openReqs := schedule(c.m.Seed, segments*win, c.m.Sizes.ServeRate, small, large)
	closedReqs := schedule(c.m.Seed+1, segments*win, 0, small, large)
	segment := func(reqs []request, k int) []request {
		lo := k % segments * win
		seg := append([]request(nil), reqs[lo:lo+win]...)
		for i := range seg {
			seg[i].Due -= reqs[lo].Due
		}
		return seg
	}
	var mu sync.Mutex // serializes tracer use by the client goroutines
	// closed runs window k of a closed loop against srv, one client per
	// connection; traced, every request is a span.
	closed := func(k int, srv *server, cls []*http.Client, traced bool) throughput {
		seg := segment(closedReqs, k)
		samples := closedLoop(seg, len(cls), func(conn, i int) error {
			start := time.Now()
			err := post(cls[conn], srv.ts.URL, seg[i].Body)
			if traced {
				mu.Lock()
				c.tr.op("serve.request", start, time.Since(start))
				mu.Unlock()
			}
			return err
		})
		return c.throughput(samples, seg)
	}
	// oneCore runs window k of the closed loop on one core.
	oneCore := func(k int) (t throughput) {
		withProcs(1, func() { t = closed(k, one, oneCls, false) })
		return t
	}
	var openS []sample
	var openB []int
	p50 := math.Inf(1) // the quietest open-loop window's median latency
	// open runs window k of the open loop, returning its start.
	open := func(k int) time.Time {
		seg := segment(openReqs, k)
		start, samples := openLoop(seg, w, func(conn, i int) error { return post(cls[conn], s.ts.URL, seg[i].Body) })
		var lat []float64
		for i, sm := range samples {
			if sm.Err == nil {
				lat = append(lat, float64(sm.Latency())/1e6)
			}
			openB = append(openB, seg[i].Body)
		}
		if len(lat) > 0 {
			p50 = min(p50, median(lat))
		}
		openS = append(openS, samples...)
		return start
	}
	// best keeps the quieter of two closed-loop windows.
	best := func(a, b throughput) throughput {
		if b.rps() > a.rps() {
			return b
		}
		return a
	}

	if !c.m.Trace {
		var top, top1, all, all1 throughput
		k := 0
		setups := c.rounds(setup,
			func() { open(k) },
			func() { t := closed(k, s, cls, false); top, all = best(top, t), all.plus(t) },
			func() { t := oneCore(k); top1, all1 = best(top1, t), all1.plus(t); k++ })
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		var lat, latLarge, wait, late []float64
		for i, sm := range openS {
			if sm.Err != nil {
				continue
			}
			lat = append(lat, ms(sm.Latency()))
			if openB[i] >= small {
				latLarge = append(latLarge, ms(sm.Latency()))
			}
			wait = append(wait, ms(sm.ConnWait()))
			late = append(late, ms(sm.Late()))
		}
		c.rep.Metrics["setup_s"] = median(setups)
		c.rep.Metrics["p50_ms"] = p50
		c.rep.Metrics["mpix_s"] = top.mpix()
		c.rep.Metrics["mpix_s_w1"] = top1.mpix()
		c.rep.Detail["max_rps"] = top.rps()
		c.rep.Detail["all.p50_ms"] = median(lat)
		c.rep.Detail["all.max_rps"] = all.rps()
		c.rep.Detail["all.mpix_s"] = all.mpix()
		c.rep.Detail["all.mpix_s_w1"] = all1.mpix()
		c.rep.Detail["all.p99_ms"] = percentile(lat, 99)
		c.rep.Detail["all.requests"] = float64(len(lat))
		c.rep.Detail["all.p50_large_ms"] = median(latLarge)
		c.rep.Detail["all.large_requests"] = float64(len(latLarge))
		c.rep.Detail["all.conn_wait_p99_ms"] = percentile(wait, 99)
		c.rep.Detail["all.gen_late_p99_ms"] = percentile(late, 99)
		return nil
	}

	var topU, topT, top1 throughput
	agg := serveAgg{phaseNS: make(map[string]float64)}
	var rt rtDelta
	k := 0
	var scrapeErr error
	c.rounds(setup,
		func() { topU = best(topU, closed(k, s, cls, false)) },
		func() { topT = best(topT, closed(k, s, cls, true)) },
		func() {
			before, err := s.metrics(cls[0])
			if err != nil {
				scrapeErr = err
				return
			}
			a := readRuntime()
			n := len(openS)
			start := open(k)
			rt.add(a, readRuntime())
			after, err := s.metrics(cls[0])
			if err != nil {
				scrapeErr = err
				return
			}
			agg.add(before, after)
			for _, sm := range openS[n:] {
				op := c.tr.op("serve.request", start.Add(sm.Due), sm.Latency())
				c.tr.child(op, "gen_late", start.Add(sm.Due), sm.Late())
				c.tr.child(op, "conn_wait", start.Add(sm.Dispatched), sm.ConnWait())
				c.tr.child(op, "roundtrip", start.Add(sm.Sent), sm.Done-sm.Sent)
			}
		},
		func() { top1 = best(top1, oneCore(k)); k++ })
	if scrapeErr != nil {
		return scrapeErr
	}

	var lat []float64
	var reqNS, rtNS, waitNS, lateNS float64
	for _, sm := range openS {
		if sm.Err != nil {
			continue
		}
		lat = append(lat, float64(sm.Latency())/1e6)
		reqNS += float64(sm.Latency())
		rtNS += float64(sm.Done - sm.Sent)
		waitNS += float64(sm.ConnWait())
		lateNS += float64(sm.Late())
	}
	// Server-side breakdown: the /metrics aggregate's growth over the
	// open-loop windows, as shares of the client round trips.
	var phased float64
	for _, ns := range agg.phaseNS {
		phased += ns
	}
	out := c.rep.Metrics
	shares(out, agg.phaseNS, rtNS, agg.totalNS-phased, rtNS-agg.totalNS)
	// Work counters per request come from the per-request documents that
	// follow the aggregate: the aggregate reuses the "runs" key for its
	// document count, hiding the binary run counter.
	var docs int
	for _, d := range agg.last[1:] {
		if d.Image != "upload" {
			continue
		}
		docs++
		for k, v := range d.Counters {
			c.ctr[k] += v
		}
	}
	c.counters(out, docs)
	out["op.p99_ms"] = percentile(lat, 99)
	out["op.samples"] = float64(len(lat))
	out["serve.conn_wait.share"] = ratio(waitNS, reqNS)
	out["serve.gen_late.share"] = ratio(lateNS, reqNS)
	out["serve.rejected"] = agg.rejected
	runtimeMetrics(rt, len(openS), out)
	out["par.scaling_eff"] = ratio(topU.mpix(), float64(w)*top1.mpix())
	out["trace.overhead_frac"] = 1 - ratio(topT.rps(), topU.rps())
	var st replayStats
	for i := range bodies {
		in := &c.m.Inputs[i]
		n := int(math.Sqrt(float64(in.Pixels)))
		if err := replayPGM(bytes.NewReader(bodies[i]), (n+w-1)/w, in.conn(), in.mode(), c.tr, &st); err != nil {
			return err
		}
	}
	st.metrics(out)
	return nil
}
