package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must show up as generator lag and as latency
// of the requests queued behind the stall, with every scheduled request
// still sent: the open loop does not omit the requests a stall delays.
func TestStallShowsAsLagNotHidden(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var reqs []request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, request{method: "GET", path: "/", due: time.Duration(i) * 5 * time.Millisecond})
	}
	outs := runOpen(context.Background(), newClient(1), srv.URL, reqs, 1, time.Second, 0)
	if len(outs) != len(reqs) {
		t.Fatalf("sent %d of %d scheduled requests", len(outs), len(reqs))
	}
	ps := statsOf(outs)
	if lag := ps.lag.quantile(0.99); lag < stall/2 {
		t.Errorf("lag p99 %v hides a %v stall", lag, stall)
	}
	if lat := ps.lat.quantile(0.99); lat < stall-10*time.Millisecond {
		t.Errorf("latency p99 %v hides a %v stall", lat, stall)
	}
	// Requests due during the stall are timed from their due time, so the
	// one due right after the stalled request waited nearly the full stall.
	if outs[5].lat < stall-2*5*time.Millisecond {
		t.Errorf("request queued behind the stall: latency %v, want ≥ %v", outs[5].lat, stall-10*time.Millisecond)
	}
}

func TestClosedLoopStopsAtDurationAndKeepsOrder(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
	}))
	defer srv.Close()
	streams := make([]func() *request, 2)
	for c := range streams {
		i := 0
		streams[c] = func() *request {
			i++
			return &request{method: "GET", path: "/", gen: i - 1}
		}
	}
	t0 := time.Now()
	per := runClosed(context.Background(), newClient(2), srv.URL, streams, 100*time.Millisecond, 0)
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("elapsed %v", el)
	}
	for c, outs := range per {
		if len(outs) == 0 {
			t.Fatalf("client %d sent nothing", c)
		}
		for i := range outs {
			if outs[i].req.gen != i {
				t.Fatalf("client %d sent request %d out of order", c, i)
			}
		}
	}
}
