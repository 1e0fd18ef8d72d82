package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetsynth/internal/server"
)

// reqIDHeader carries the benchmark's request ID to the traced handlers;
// the router forwards it like any end-to-end header.
const reqIDHeader = "X-Bench-Request"

// outcome is one sent request and what came back. Latency is measured from
// the due time in the open loop and from the send in the closed loop.
type outcome struct {
	req    *request
	sent   bool
	status int
	body   []byte
	err    error
	lat    time.Duration
	// lag is how late the generator sent: send time minus due time in the
	// open loop, the gap since the client's previous answer in the closed
	// loop.
	lag        time.Duration
	start, end time.Time // the send and the last response byte
	id         int64     // request ID when traced, else 0
}

func (o *outcome) ok() bool { return o.sent && o.err == nil && o.status >= 200 && o.status < 300 }

// newClient returns a client holding at most conns connections to a host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// send issues r against base and reads the whole response. id, when
// non-zero, is sent as the request ID header.
func send(ctx context.Context, cl *http.Client, base string, r *request, id int64) (int, []byte, error) {
	var body io.Reader = http.NoBody
	if n := r.bodyLen(); n > 0 {
		body = io.MultiReader(bytes.NewReader(r.head), bytes.NewReader(r.tail))
	}
	hr, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	hr.ContentLength = int64(r.bodyLen())
	if hr.ContentLength == 0 {
		hr.Body = http.NoBody
	}
	if r.bin {
		hr.Header.Set("Content-Type", server.BinContentType)
		hr.Header.Set("Accept", server.BinContentType)
	} else if hr.ContentLength > 0 {
		hr.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		hr.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	resp, err := cl.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 {
		out := make([]byte, n)
		_, err = io.ReadFull(resp.Body, out)
		return resp.StatusCode, out, err
	}
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// runOpen sends reqs on their due schedule (offsets from the phase start)
// with `workers` goroutines, each holding at most one request in flight,
// until every request due within dur has been sent. A request is timed from
// its due time, so a stall delays the requests queued behind it and shows
// in their latency (no coordinated omission); how late each send was is
// kept as lag.
func runOpen(ctx context.Context, cl *http.Client, base string, reqs []request, workers int, dur time.Duration, idBase int64) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || reqs[i].due >= dur || ctx.Err() != nil {
					return
				}
				r := &reqs[i]
				due := start.Add(r.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := &outs[i]
				o.req, o.sent = r, true
				o.start = time.Now()
				o.lag = o.start.Sub(due)
				if idBase != 0 {
					o.id = idBase + int64(i)
				}
				o.status, o.body, o.err = send(ctx, cl, base, r, o.id)
				o.end = time.Now()
				o.lat = o.end.Sub(due)
			}
		}()
	}
	wg.Wait()
	n := 0
	for n < len(outs) && outs[n].sent {
		n++
	}
	return outs[:n]
}

// runClosed runs one client per stream, each sending its stream's requests
// back to back until dur has elapsed, and returns each client's outcomes in
// order.
func runClosed(ctx context.Context, cl *http.Client, base string, streams []func() *request, dur time.Duration, idBase int64) [][]outcome {
	per := make([][]outcome, len(streams))
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				r := streams[c]()
				o := outcome{req: r, sent: true}
				if idBase != 0 {
					o.id = idBase + int64(c)<<32 + int64(i)
				}
				o.start = time.Now()
				o.lag = o.start.Sub(prev)
				o.status, o.body, o.err = send(ctx, cl, base, r, o.id)
				o.end = time.Now()
				o.lat = o.end.Sub(o.start)
				prev = o.end
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	return per
}

// streamsOf returns the generators of w's closed-loop clients.
func streamsOf(w *workload) []func() *request {
	s := make([]func() *request, w.clients)
	for c := range s {
		s[c] = w.stream(c)
	}
	return s
}

func flatten(per [][]outcome) []outcome {
	var outs []outcome
	for _, p := range per {
		outs = append(outs, p...)
	}
	return outs
}
