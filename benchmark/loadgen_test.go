package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsDeterministic(t *testing.T) {
	a := schedule(42, 3000, 300, 32, 8)
	if b := schedule(42, 3000, 300, 32, 8); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if c := schedule(43, 3000, 300, 32, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	block := blockSize(32, 8)
	seen := make(map[int]int)
	for i, r := range a {
		if want := time.Duration(float64(i) / 300 * float64(time.Second)); r.Due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.Due, want)
		}
		if r.Body < 0 || r.Body >= 40 {
			t.Fatalf("request %d posts body %d of 40", i, r.Body)
		}
		seen[r.Body]++
		if (i+1)%block == 0 {
			// Every whole block holds each large body exactly once.
			for b := 32; b < 40; b++ {
				if seen[b] != 1 {
					t.Fatalf("block ending at request %d posts large body %d %d times", i, b, seen[b])
				}
			}
			seen = make(map[int]int)
		}
	}
}

// TestOpenLoopChargesStalls runs the open loop against a handler that
// stalls once for 100 ms: the requests due during the stall must carry the
// wait in their latency (no coordinated omission), reported as connection
// wait, while the generator itself stays on schedule.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 100 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		if n.Add(1) == 11 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	cls := clients(1)
	defer closeClients(cls)

	reqs := schedule(1, 60, 200, 4, 0) // one every 5 ms
	_, samples := openLoop(reqs, 1, func(conn, i int) error {
		resp, err := cls[conn].Get(ts.URL)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
	}
	if l := samples[10].Latency(); l < stall {
		t.Errorf("stalled request latency %v, want at least %v", l, stall)
	}
	queued := samples[11] // due 5 ms after the stalled request
	if l := queued.Latency(); l < stall-20*time.Millisecond {
		t.Errorf("queued request latency %v: the stall was not charged to it", l)
	}
	if w := queued.ConnWait(); w < stall-20*time.Millisecond {
		t.Errorf("queued request waited %v for a connection, want most of %v", w, stall)
	}
	if late := queued.Late(); late > 20*time.Millisecond {
		t.Errorf("generator ran %v late: connection wait leaked into generator lateness", late)
	}
	if l := samples[len(samples)-1].Latency(); l > 50*time.Millisecond {
		t.Errorf("last request latency %v: the backlog never drained", l)
	}
}
