package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsynth/internal/cluster"
	"hetsynth/internal/server"
)

// span is one timed interval of a traced run. Spans of one request share
// Req; Parent links a handler span to the span that caused it (the router
// hop or the client). Layer probes outside any request have Req 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, req, parent int64, t0, t1 time.Time) int64 {
	id := r.next.Add(1)
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(t0.Sub(r.epoch)), End: int64(t1.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// wrap records a span named layer.<endpoint> around every request h serves
// while the recorder is on.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, q)
			return
		}
		req, _ := strconv.ParseInt(q.Header.Get(reqIDHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, q)
		r.add(layer+"."+endpointOf(q.Method, q.URL.Path), req, 0, t0, time.Now())
	})
}

// time runs f and records it as a probe span.
func (r *recorder) time(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(name, 0, 0, t0, t1)
	return t1.Sub(t0)
}

func endpointOf(method, path string) string {
	switch {
	case path == "/v1/solve":
		return "solve"
	case path == "/v1/solve-batch":
		return "batch"
	case path == "/v1/admit":
		return "admit"
	case strings.HasPrefix(path, "/v1/instances/") && method == "PATCH":
		return "patch"
	case strings.HasPrefix(path, "/v1/instances/") && method == "GET":
		return "get"
	case strings.HasPrefix(path, "/v1/instances/") && method == "PUT":
		return "put"
	}
	return "other"
}

// link sets each handler span's parent: the node span's parent is the
// router span of the same request when there is one, else the client span.
func (r *recorder) link() {
	type chain struct{ client, router int64 }
	by := map[int64]*chain{}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Req == 0 {
			continue
		}
		c := by[s.Req]
		if c == nil {
			c = &chain{}
			by[s.Req] = c
		}
		switch {
		case strings.HasPrefix(s.Name, "client."):
			c.client = s.ID
		case strings.HasPrefix(s.Name, "router."):
			c.router = s.ID
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if c := by[s.Req]; c != nil && s.Req != 0 {
			switch {
			case strings.HasPrefix(s.Name, "router."):
				s.Parent = c.client
			case strings.HasPrefix(s.Name, "node."):
				s.Parent = c.router
				if s.Parent == 0 {
					s.Parent = c.client
				}
			}
		}
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// inproc is the traced topology: hetsynthd's and hetsynthrouter's
// handlers served in this process on loopback listeners.
type inproc struct {
	nodes     []*server.Server
	nodeURLs  []string
	router    *cluster.Router
	routerURL string
	srvs      []*http.Server
	closeOnce sync.Once
}

func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() {
		// Serve returns http.ErrServerClosed once close() shuts it down.
		_ = srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// startInproc builds `nodes` servers with the daemon's defaults and a
// router in front of them, each handler wrapped by the recorder.
func startInproc(w *workload, rec *recorder, nodes int) (*inproc, error) {
	ip := &inproc{}
	for i := 0; i < nodes; i++ {
		s := server.New(server.Config{CacheSize: w.cache})
		ip.nodes = append(ip.nodes, s)
		srv, url, err := serveLoopback(rec.wrap("node", s.Handler()))
		if err != nil {
			ip.close()
			return nil, err
		}
		ip.srvs = append(ip.srvs, srv)
		ip.nodeURLs = append(ip.nodeURLs, url)
	}
	rt, err := cluster.New(cluster.Config{Peers: ip.nodeURLs})
	if err != nil {
		ip.close()
		return nil, err
	}
	ip.router = rt
	srv, url, err := serveLoopback(rec.wrap("router", rt.Handler()))
	if err != nil {
		ip.close()
		return nil, err
	}
	ip.srvs = append(ip.srvs, srv)
	ip.routerURL = url
	return ip, waitReady(url, nodes)
}

func (ip *inproc) close() {
	ip.closeOnce.Do(func() {
		for _, srv := range ip.srvs {
			_ = srv.Close()
		}
		if ip.router != nil {
			ip.router.Close()
		}
		for _, s := range ip.nodes {
			s.Close()
		}
	})
}

// nodeMetrics sums the nodes' counters.
func (ip *inproc) nodeMetrics() server.MetricsSnapshot {
	var sum server.MetricsSnapshot
	for _, s := range ip.nodes {
		m := s.Metrics()
		sum.CacheHits += m.CacheHits
		sum.RawHits += m.RawHits
		sum.FrontierHits += m.FrontierHits
		sum.Coalesced += m.Coalesced
		sum.Solves += m.Solves
		sum.Shed += m.Shed
		sum.Abandoned += m.Abandoned
		sum.Degraded += m.Degraded
		sum.PatchesRejected += m.PatchesRejected
		sum.SolveLatency.Count += m.SolveLatency.Count
		sum.SolveLatency.MeanMS += m.SolveLatency.MeanMS * float64(m.SolveLatency.Count) // a sum until divided
	}
	return sum
}

// sampleQueue records the highest queue depth seen on any node until stop
// is closed.
func (ip *inproc) sampleQueue(stop <-chan struct{}) <-chan int64 {
	out := make(chan int64, 1)
	go func() {
		var hi int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- hi
				return
			case <-tick.C:
				for _, s := range ip.nodes {
					hi = max(hi, s.Metrics().QueueDepth)
				}
			}
		}
	}()
	return out
}

// runTraced runs the workload against the in-process topology: an untraced
// phase, then the same traffic traced, then the layer probes.
func runTraced(w *workload, seconds float64) (*result, error) {
	rec := newRecorder()
	nodes := 1
	if w.cluster {
		nodes = 2
	}
	ip, err := startInproc(w, rec, nodes)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	entry := ip.nodeURLs[0]
	if w.cluster {
		entry = ip.routerURL
	}
	cert := newCertifier(w)
	cl := newClient(w.clients)
	ctx := context.Background()
	for i := range w.warm {
		r := &w.warm[i]
		if st, body, err := send(ctx, cl, entry, r, 0); err != nil || st/100 != 2 {
			return nil, fmt.Errorf("warm-up %s %s: status %d %v %.200s", r.method, r.path, st, err, body)
		}
	}
	// Two phases of a quarter run each: hot-mix's open schedule covers more
	// than half the run.
	phase := time.Duration(seconds / 4 * float64(time.Second))

	// Phase A: untraced. Phase B: the same kind of traffic, traced.
	var outsA, outsB []outcome
	var metA, metB server.MetricsSnapshot
	var rtA, rtB cluster.RouterMetricsSnapshot
	var qmax int64
	if w.rate > 0 {
		outsA = runOpen(ctx, cl, entry, w.open, w.clients, phase, 0)
		// Phase B continues the schedule where phase A stopped, so its
		// fresh deadlines are fresh.
		var restB []request
		for _, r := range w.open[len(outsA):] {
			r.due -= phase
			if r.due >= 0 {
				restB = append(restB, r)
			}
		}
		metA, rtA = ip.nodeMetrics(), ip.router.Metrics()
		rec.on.Store(true)
		stop := make(chan struct{})
		q := ip.sampleQueue(stop)
		outsB = runOpen(ctx, cl, entry, restB, w.clients, phase, 1)
		close(stop)
		qmax = <-q
	} else {
		// Phase B continues the clients' streams where phase A stopped.
		streams := streamsOf(w)
		outsA = flatten(runClosed(ctx, cl, entry, streams, phase, 0))
		metA, rtA = ip.nodeMetrics(), ip.router.Metrics()
		rec.on.Store(true)
		stop := make(chan struct{})
		q := ip.sampleQueue(stop)
		outsB = flatten(runClosed(ctx, cl, entry, streams, phase, 1))
		close(stop)
		qmax = <-q
	}
	metB, rtB = ip.nodeMetrics(), ip.router.Metrics()
	for i := range outsB {
		o := &outsB[i]
		rec.add("client."+endpointOf(o.req.method, o.req.path), o.id, 0, o.start, o.end)
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	chains := requestChains(rec, w.cluster)
	handlers := handlerTimes(rec)
	put("transport.client_self_us", "us", us(selfTimes(chains, clientSelf).quantile(0.5)))

	// Counter deltas over the traced phase.
	served := float64((metB.CacheHits + metB.FrontierHits + metB.Coalesced + metB.Solves) -
		(metA.CacheHits + metA.FrontierHits + metA.Coalesced + metA.Solves))
	ratio := func(n int64) float64 {
		if served <= 0 {
			return 0
		}
		return float64(n) / served
	}
	put("server.raw_hit_ratio", "ratio", ratio(metB.RawHits-metA.RawHits))
	put("server.cache_hit_ratio", "ratio", ratio(metB.CacheHits+metB.FrontierHits-metA.CacheHits-metA.FrontierHits))
	put("server.frontier_hits", "count", float64(metB.FrontierHits-metA.FrontierHits))
	put("server.coalesced", "count", float64(metB.Coalesced-metA.Coalesced))
	put("server.queue_depth_max", "count", float64(qmax))
	put("server.shed", "count", float64(metB.Shed-metA.Shed))
	put("server.abandoned", "count", float64(metB.Abandoned-metA.Abandoned))
	put("server.degraded", "count", float64(metB.Degraded-metA.Degraded))
	put("server.patches_rejected", "count", float64(metB.PatchesRejected-metA.PatchesRejected))

	// Harness figures.
	latA, latB := statsOf(outsA), statsOf(outsB)
	put("harness.lag_p99_ms", "ms", ms(latB.lag.quantile(0.99)))
	put("harness.untraced_p50_us", "us", us(latA.lat.quantile(0.5)))
	put("harness.trace_overhead_ratio", "ratio", float64(latB.lat.quantile(0.5))/float64(latA.lat.quantile(0.5)))
	put("harness.e2e_p50_us", "us", us(selfTimes(chains, func(c *reqChain) time.Duration { return c.client }).quantile(0.5)))

	// The router hop: hot-mix measures it on its own traffic; the direct
	// workloads send a probe of their own requests through the router.
	hops := chains
	if !w.cluster {
		rtA = ip.router.Metrics()
		probe := routerProbe(w, outsA)
		for i := range probe {
			id := int64(1)<<40 + int64(i)
			t0 := time.Now()
			if _, _, err := send(ctx, cl, ip.routerURL, &probe[i], id); err != nil {
				return nil, fmt.Errorf("router probe: %w", err)
			}
			rec.add("client."+endpointOf(probe[i].method, probe[i].path), id, 0, t0, time.Now())
		}
		rtB = ip.router.Metrics()
		hops = requestChains(rec, true)
	}
	put("cluster.hop_self_us", "us", us(selfTimes(hops, hopSelf).quantile(0.5)))
	put("cluster.affinity_rate", "ratio", rtB.AffinityRate)
	put("cluster.failovers", "count", float64(rtB.Failovers-rtA.Failovers))
	put("cluster.key_fallbacks", "count", float64(rtB.KeyFallbacks-rtA.KeyFallbacks))

	c := newCorpus(w)
	if err := c.handlerProbe(ctx, cl, ip.nodeURLs[0], rec, handlers); err != nil {
		return nil, err
	}
	for _, e := range kindNames {
		put("server.handler_us."+e, "us", us(handlers[e].quantile(0.5)))
	}
	// The mean solve time is over the nodes' lifetime, probes included: on
	// hot-mix every measured answer is cached and only the warm-up ran
	// solvers, and session patches do not pass through the solver pool.
	if life := ip.nodeMetrics(); life.SolveLatency.Count > 0 {
		put("server.solve_mean_ms", "ms", life.SolveLatency.MeanMS/float64(life.SolveLatency.Count))
	} else {
		put("server.solve_mean_ms", "ms", 0)
	}
	var hz samples
	for i := 0; i < 200; i++ {
		r := request{method: "GET", path: "/healthz"}
		t0 := time.Now()
		if _, _, err := send(ctx, cl, ip.nodeURLs[0], &r, 0); err != nil {
			return nil, err
		}
		hz = append(hz, time.Since(t0))
	}
	put("transport.healthz_rtt_us", "us", us(hz.quantile(0.5)))
	ip.close()

	if err := c.dispatchProbe(rec, put); err != nil {
		return nil, err
	}
	if err := c.layerProbes(rec, put); err != nil {
		return nil, err
	}
	// Reconciliation: what of each traced request's end-to-end time the
	// independently measured layer figures do not account for.
	un := unattributed(chains, func(e string) float64 { return m["server.dispatch_us."+e].Value })
	put("harness.unattributed_us", "us", us(un.quantile(0.5)))

	rec.link()
	spansPath := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, w.seed))
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}
	tl := cert.certifyAll(append(outsA, outsB...))
	if tl.firstWrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first wrong answer:", tl.firstWrong)
	}
	detail := map[string]any{
		"workload":              w.name,
		"traced_requests":       len(outsB),
		"untraced_requests":     len(outsA),
		"spans":                 len(rec.spans),
		"spans_file":            spansPath,
		"unattributed_base":     "p50 over traced requests of client span − client self − hop self − server.dispatch_us p50 of the request's endpoint (in-memory Handler().ServeHTTP on a fresh server); base harness.e2e_p50_us",
		"unattributed_requests": len(un),
		"trace_overhead_base":   "untraced p50 on the same in-process topology",
	}
	if err := json.NewEncoder(os.Stdout).Encode(detail); err != nil {
		return nil, err
	}
	return &result{Correct: tl.wrong == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// reqChain is one traced request's client, router and node handler span
// durations.
type reqChain struct {
	endpoint             string
	client, router, node time.Duration
}

func clientSelf(c *reqChain) time.Duration {
	if c.router > 0 {
		return c.client - c.router
	}
	return c.client - c.node
}

func hopSelf(c *reqChain) time.Duration { return c.router - c.node }

// requestChains pairs each request's client, router and node spans, keeping
// the requests that have all of them (the router span only when routed).
func requestChains(rec *recorder, routed bool) []reqChain {
	by := map[int64]*reqChain{}
	rec.mu.Lock()
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.Req == 0 {
			continue
		}
		c := by[s.Req]
		if c == nil {
			c = &reqChain{}
			by[s.Req] = c
		}
		layer, endpoint, _ := strings.Cut(s.Name, ".")
		switch layer {
		case "client":
			c.client, c.endpoint = s.dur(), endpoint
		case "router":
			c.router = s.dur()
		case "node":
			c.node = s.dur()
		}
	}
	rec.mu.Unlock()
	var out []reqChain
	for _, c := range by {
		if c.client > 0 && c.node > 0 && (c.router > 0) == routed {
			out = append(out, *c)
		}
	}
	return out
}

// selfTimes maps f over the chains.
func selfTimes(cs []reqChain, f func(*reqChain) time.Duration) samples {
	s := make(samples, len(cs))
	for i := range cs {
		s[i] = f(&cs[i])
	}
	return s
}

// unattributed is, per request, the client span minus the layer figures
// that account for it: the client's and the router's self times, which
// cover everything outside the node's handler span, and the median
// in-memory dispatch time of the request's endpoint (dispatchUS), measured
// on its own without a socket. What is left is the node span minus that
// dispatch time: time no layer figure covers, chiefly the node's socket
// and HTTP framing.
func unattributed(cs []reqChain, dispatchUS func(endpoint string) float64) samples {
	s := make(samples, len(cs))
	for i := range cs {
		s[i] = cs[i].node - time.Duration(dispatchUS(cs[i].endpoint)*float64(time.Microsecond))
	}
	return s
}

// handlerTimes groups node handler span durations by endpoint.
func handlerTimes(rec *recorder) map[string]samples {
	out := map[string]samples{}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range rec.spans {
		if e, ok := strings.CutPrefix(rec.spans[i].Name, "node."); ok {
			out[e] = append(out[e], rec.spans[i].dur())
		}
	}
	return out
}
