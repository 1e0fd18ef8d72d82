// Package server implements hetsynthd, an HTTP/JSON synthesis service over
// the repository's assignment and scheduling solvers.
//
// Request flow for a solve (sync or async):
//
//	decode ──▶ result cache ──▶ frontier fast path ──▶ join in-flight ──▶ pool
//	              (hit: no         (tree instance,        (coalesce on      (bounded FIFO
//	               pool touch)      cached curve)          same digest)      queue, N workers)
//
// The result cache and the frontier cache share one LRU keyed by canonical
// SHA-256 digests (package canon): a full request digest (graph + table +
// deadline + algorithm) maps to a finished SolveResult, and a
// deadline-independent instance digest maps to a hap.FrontierSolver whose
// cost/deadline curve answers *any* covered deadline for that instance
// without re-running the DP. Identical requests that race are collapsed to a
// single solver execution by a single-flight group keyed by the request
// digest; followers never occupy pool workers.
package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/sched"
)

// Config tunes a Server. Zero values select sensible defaults.
type Config struct {
	Workers      int // solver pool size; default GOMAXPROCS
	QueueDepth   int // FIFO admission bound; default 64
	CacheSize    int // LRU entries (results + frontiers); default 256
	CacheShards  int // cache shard count, rounded up to a power of two; default 16
	JobRetention int // finished async jobs kept for polling; default 256

	DefaultTimeout time.Duration // per-solve budget when the request sets none; default 30s
	MaxTimeout     time.Duration // upper clamp on requested budgets; default 120s

	SessionTTL         time.Duration // idle lifetime of a stateful session; default 10m
	SessionMax         int           // live session cap (LRU-evicted beyond it); default 64
	SessionEventBuffer int           // per-subscriber SSE mailbox depth; default 32

	Logger *slog.Logger // default: discard
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize < 1 {
		c.CacheSize = 256
	}
	if c.CacheShards < 1 {
		c.CacheShards = 16
	}
	if c.JobRetention < 1 {
		c.JobRetention = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.SessionMax < 1 {
		c.SessionMax = 64
	}
	if c.SessionEventBuffer < 1 {
		c.SessionEventBuffer = 32
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the hetsynthd service: a worker pool, a shared LRU over results
// and frontier solvers, a single-flight group, and an async job store.
type Server struct {
	cfg   Config
	log   *slog.Logger
	noLog bool // no Logger configured: skip the request-log wrapper entirely
	met   *metrics
	cache *shardedCache
	// rawCache maps verbatim request bodies of POST /v1/solve to their fully
	// encoded responses (rawEntry, one body per wire codec), so a repeated
	// identical body is served without decoding, resolution or digesting. Its own
	// eviction domain: raw bodies are bulkier and strictly redundant with the
	// digest-keyed result cache, so pressure here never evicts a frontier.
	rawCache *shardedCache
	flights  *flightGroup
	pool     *pool
	jobs     *jobStore

	// sessions holds the stateful instances of PUT /v1/instances/{id}; sessWG
	// joins the TTL janitor goroutine at shutdown.
	sessions *sessionStore
	sessWG   sync.WaitGroup

	// baseCtx parents every solver execution, so solves survive client
	// disconnects (the result still lands in the cache) and are only torn
	// down when the server itself shuts down after draining.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool

	// preSolve, when set, runs at the start of every real solver or
	// admission-analysis execution.
	// It exists for package tests that need a solve to block deterministically
	// (e.g. to prove concurrent duplicates coalesce onto one execution).
	preSolve func(ctx context.Context)
}

// New builds a Server ready to serve; callers own shutdown via Run or Close.
func New(cfg Config) *Server {
	noLog := cfg.Logger == nil
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		noLog:    noLog,
		met:      newMetrics(),
		cache:    newShardedCache(cfg.CacheSize, cfg.CacheShards),
		rawCache: newShardedCache(cfg.CacheSize, cfg.CacheShards),
		flights:  newFlightGroup(),
		jobs:     newJobStore(cfg.JobRetention),
		sessions: newSessionStore(),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.met)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.sessWG.Add(1)
	go func() {
		defer s.sessWG.Done()
		s.sessionJanitor()
	}()
	return s
}

// Handler returns the server's HTTP routes wrapped in request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve-batch", s.handleSolveBatch)
	mux.HandleFunc("POST /v1/admit", s.handleAdmit)
	mux.HandleFunc("POST /v1/admit/jobs", s.handleAdmitJobSubmit)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("PUT /v1/instances/{id}", s.handleSessionPut)
	mux.HandleFunc("PATCH /v1/instances/{id}", s.handleSessionPatch)
	mux.HandleFunc("GET /v1/instances/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/instances/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/instances/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/peerz", s.handlePeerz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logged(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) != "" {
			s.met.forwardedIn.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
}

// Run serves on ln until ctx is cancelled, then drains: admission stops
// (healthz reports draining, new work gets 503), in-flight HTTP requests and
// queued jobs run to completion, and only then do solver contexts die.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.InfoContext(ctx, "draining", "queue_depth", s.met.queueDepth.Load(), "in_flight", s.met.inFlight.Load())
	s.draining.Store(true)
	// Evict sessions before Shutdown: eviction closes every SSE stream, so
	// Shutdown's wait for in-flight handlers is not parked behind open
	// event streams.
	s.evictAllSessions("shutdown")
	// Shutdown stops new connections and waits for in-flight handlers; the
	// handlers in turn wait for their pool tasks, so the pool must still be
	// alive here. Drain the pool after, then tear down solver contexts.
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.MaxTimeout)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	s.pool.drain()
	s.baseCancel()
	s.sessWG.Wait()
	s.log.InfoContext(ctx, "drained")
	return err
}

// Close drains the server without a listener (tests, embedded use).
func (s *Server) Close() {
	s.draining.Store(true)
	s.evictAllSessions("shutdown")
	s.pool.drain()
	s.baseCancel()
	s.sessWG.Wait()
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics returns a point-in-time snapshot of the operational counters.
func (s *Server) Metrics() MetricsSnapshot { return s.met.snapshot(s.cache.len(), s.sessions.len()) }

// ---- solve pipeline ----

// abandonGrace bounds how long a sync handler keeps waiting after the solve
// budget has already expired: enough for a cooperative solver to observe the
// cancellation and surface a partial result, short enough that a client is
// never parked behind a worker that will not yield.
const abandonGrace = 500 * time.Millisecond

// solveBudget resolves a request's per-solve time budget.
func (s *Server) solveBudget(spec *solveSpec) time.Duration {
	d := s.cfg.DefaultTimeout
	if spec.timeout > 0 {
		d = time.Duration(spec.timeout) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// estimatedQueueWait predicts how long a newly queued task sits before a
// worker picks it up: queue depth over pool width, times the observed mean
// solve latency. Zero before any solve has completed — with no data the
// server admits optimistically and lets the queue bound do its job.
func (s *Server) estimatedQueueWait() time.Duration {
	mean := s.met.meanSolve()
	if mean == 0 {
		return 0
	}
	return time.Duration(s.met.queueDepth.Load()/int64(s.cfg.Workers)) * mean
}

// retryAfterSeconds turns the queue-wait estimate into a Retry-After hint,
// clamped to [1, 30] seconds (at least 1 even when the estimate is cold, so
// shed clients always back off a little).
func (s *Server) retryAfterSeconds() int {
	sec := int(s.estimatedQueueWait() / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// tryFast answers a request without touching the worker pool: first the
// result cache, then — for tree instances without a phase-2 request — a
// cached frontier curve, which serves *any* covered deadline of the same
// graph+table by tracing one assignment out of the DP tables.
//
// The returned apiError is a definitive negative answer (e.g. infeasible
// read off the curve); (nil, "", nil) means "no fast answer, go solve".
func (s *Server) tryFast(spec *solveSpec) (*SolveResult, string, *apiError) {
	if v, ok := s.cache.get(spec.key); ok {
		s.met.cacheHits.Add(1)
		return v.(*SolveResult), "cache", nil
	}
	if !spec.tree || spec.schedule {
		return nil, "", nil
	}
	v, ok := s.cache.get(spec.instKey)
	if !ok {
		return nil, "", nil
	}
	fs := v.(*hap.FrontierSolver)
	sol, err := fs.SolveAt(spec.prob.Deadline)
	switch {
	case err == nil:
		res := s.buildResult(spec, sol, fs, 0)
		s.cache.put(spec.key, res)
		s.met.frontierHits.Add(1)
		return res, "frontier", nil
	case errors.Is(err, hap.ErrInfeasible):
		// The curve's first breakpoint is the instance's minimum makespan, so
		// "below the curve" is authoritative infeasibility — no solver run
		// could do better.
		s.met.frontierHits.Add(1)
		return nil, "frontier", classifySolveErr(err)
	default:
		// Beyond a truncated horizon: the full path rebuilds a wider curve.
		return nil, "", nil
	}
}

// runSolve is the body of a pool task: one more cache check (a flight keyed
// the same may have landed while this task sat in the queue), then the
// single-flight group guarantees at most one real execution per digest.
func (s *Server) runSolve(ctx context.Context, spec *solveSpec) (*SolveResult, string, error) {
	if v, ok := s.cache.get(spec.key); ok {
		s.met.cacheHits.Add(1)
		return v.(*SolveResult), "cache", nil
	}
	res, shared, err := s.flights.Do(spec.key, func() (*SolveResult, error) {
		return s.executeSolve(ctx, spec)
	})
	source := "solve"
	if shared {
		source = "coalesced"
		s.met.coalesced.Add(1)
	}
	return res, source, err
}

// executeSolve runs the actual solver (phase 1, optionally phase 2) and
// caches the outcome. For tree-shaped instances it solves through a
// FrontierSolver and caches the solver itself under the instance digest, so
// later requests that differ only in deadline are answered from the curve.
func (s *Server) executeSolve(ctx context.Context, spec *solveSpec) (*SolveResult, error) {
	if s.preSolve != nil {
		s.preSolve(ctx)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	s.met.solves.Add(1)

	var sol hap.Solution
	var fs *hap.FrontierSolver
	var anyRes *hap.AnytimeResult
	var err error
	switch {
	case spec.tree:
		// Tree shapes take the frontier DP even for anytime requests: the
		// curve is the exact answer and serves future deadlines for free.
		fs, sol, err = s.frontierSolve(spec)
	case spec.anytime:
		var ar hap.AnytimeResult
		ar, err = hap.SolveAnytime(ctx, spec.prob, hap.AnytimeOptions{})
		if err == nil {
			sol = ar.Solution
			anyRes = &ar
		}
	default:
		sol, err = hap.SolveCtx(ctx, spec.prob, spec.algo)
	}
	if err != nil {
		s.met.solveErrors.Add(1)
		return nil, err
	}

	res := s.buildResult(spec, sol, fs, time.Since(start))
	if anyRes != nil {
		res.Quality = string(anyRes.Quality)
		gap, lb := anyRes.Gap, anyRes.LowerBound
		res.Gap = &gap
		res.LowerBound = &lb
		res.Stage = anyRes.Stage
	}
	switch res.Quality {
	case string(hap.QualityTimeout):
		s.met.degraded.Add(1)
	case string(hap.QualityExact):
		s.met.exactRes.Add(1)
	}
	if spec.schedule {
		schd, conf, serr := sched.MinRSchedule(spec.prob.Graph, spec.prob.Table, sol.Assign, spec.prob.Deadline)
		if serr != nil {
			s.met.solveErrors.Add(1)
			return nil, serr
		}
		res.Schedule = &SchedulePayload{
			Start:    schd.Start,
			Instance: schd.Instance,
			Length:   schd.Length,
			Config:   conf,
		}
		res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	s.met.observeSolve(time.Since(start))
	// Timeout-quality incumbents are budget-dependent — the same request with
	// a roomier deadline deserves a fresh solve — so only settled qualities
	// enter the cache.
	if res.Quality != string(hap.QualityTimeout) {
		s.cache.put(spec.key, res)
	}
	return res, nil
}

// frontierSolve answers a tree instance through its cached frontier curve,
// building (or widening) the FrontierSolver as needed. The curve is built
// out to the instance's maximum makespan — the longest path under the
// slowest FU choice per node — beyond which every assignment is feasible, so
// the cached curve is complete and covers every future deadline. The
// solver's cache entry is pinned (eviction-exempt) for the duration of the
// call, so concurrent insertions cannot drop it between the lookup and the
// traceback; batch groups additionally hold a pin across all their entries.
func (s *Server) frontierSolve(spec *solveSpec) (*hap.FrontierSolver, hap.Solution, error) {
	var fs *hap.FrontierSolver
	pinned := false
	if v, ok := s.cache.acquire(spec.instKey); ok {
		fs = v.(*hap.FrontierSolver)
		pinned = true
	}
	if fs == nil || (!fs.Complete() && fs.Horizon() < spec.prob.Deadline) {
		horizon := spec.prob.Deadline
		wmax := make([]int, spec.prob.Graph.N())
		for v := range wmax {
			wmax[v] = spec.prob.Table.MaxTime(v)
		}
		if maxLen, _, err := spec.prob.Graph.LongestPath(wmax); err == nil && maxLen > horizon {
			horizon = maxLen
		}
		wide := spec.prob
		wide.Deadline = horizon
		built, err := hap.NewFrontierSolver(wide)
		if err != nil {
			if pinned {
				s.cache.release(spec.instKey)
			}
			return nil, hap.Solution{}, err
		}
		fs = built
		// putAcquired refreshes a pinned entry in place (keeping its pins), so
		// the balance below — exactly one release per acquire/putAcquired —
		// holds on both the fresh-build and the widen path.
		if pinned {
			s.cache.put(spec.instKey, fs)
		} else {
			s.cache.putAcquired(spec.instKey, fs)
			pinned = true
		}
	}
	sol, err := fs.SolveAt(spec.prob.Deadline)
	if pinned {
		s.cache.release(spec.instKey)
	}
	return fs, sol, err
}

// buildResult assembles the wire result for a finished phase-1 solve.
func (s *Server) buildResult(spec *solveSpec, sol hap.Solution, fs *hap.FrontierSolver, elapsed time.Duration) *SolveResult {
	res := &SolveResult{
		Algorithm:  spec.algoName,
		Deadline:   spec.prob.Deadline,
		Cost:       sol.Cost,
		Length:     sol.Length,
		Assignment: assignmentInts(sol.Assign),
		Quality:    staticQuality(spec),
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
	}
	if spec.anytime && spec.tree {
		// Anytime on a tree rides the frontier DP, which is optimal: report
		// the zero gap explicitly so anytime clients always see gap fields.
		gap, lb := 0.0, sol.Cost
		res.Gap = &gap
		res.LowerBound = &lb
		res.Stage = "tree"
	}
	if fs != nil {
		for _, p := range fs.Frontier() {
			res.Frontier = append(res.Frontier, FrontierPointPayload{Deadline: p.Deadline, Cost: p.Cost})
		}
	}
	return res
}

// staticQuality classifies a completed non-anytime solve: the shape-
// restricted DPs and the branch-and-bound return proven optima, everything
// else is a heuristic without a proof. Anytime executions overwrite this
// with the ladder's own verdict (which can also be "timeout").
func staticQuality(spec *solveSpec) string {
	if spec.tree {
		return string(hap.QualityExact)
	}
	switch spec.algoName {
	case "path", "tree", "exact":
		return string(hap.QualityExact)
	case "auto":
		if spec.prob.Graph.IsSimplePath() {
			return string(hap.QualityExact)
		}
		return string(hap.QualityHeuristic)
	default:
		return string(hap.QualityHeuristic)
	}
}

func assignmentInts(a hap.Assignment) []int {
	out := make([]int, len(a))
	for i, k := range a {
		out[i] = int(k)
	}
	return out
}

// dispatch submits a unit of work to the pool and returns the task; the
// caller waits on task.done and reads whatever run wrote. A janitor
// goroutine releases the work context once the task completes (or is
// skipped), so an abandoned sync request neither cancels a shared execution
// nor leaks its context. run executes on the worker between before and
// after, so pool.drain() returning implies every accepted job has reached a
// final state.
type solveOutcome struct {
	res    *SolveResult
	source string
	err    error
}

func (s *Server) dispatch(ctx context.Context, cancel context.CancelFunc, run func(ctx context.Context), before, after func()) (*task, *apiError) {
	t := &task{
		ctx:  ctx,
		done: make(chan struct{}),
		run: func(ctx context.Context) {
			if before != nil {
				before()
			}
			run(ctx)
			if after != nil {
				after()
			}
		},
	}
	if s.draining.Load() {
		cancel()
		return nil, &apiError{Status: 503, Msg: "server is draining"}
	}
	// Predictive admission control: when every worker is busy and the queued
	// backlog is already predicted to outlast this request's compute budget,
	// shed now with a back-off hint instead of queueing a task doomed to be
	// skipped after burning its whole budget in line.
	if dl, ok := ctx.Deadline(); ok && s.met.queueDepth.Load() >= int64(s.cfg.Workers) {
		if est := s.estimatedQueueWait(); est > 0 && est > time.Until(dl) {
			cancel()
			s.met.shed.Add(1)
			return nil, &apiError{
				Status:     http.StatusTooManyRequests,
				Msg:        "overloaded: predicted queue wait exceeds the request's compute budget",
				RetryAfter: s.retryAfterSeconds(),
			}
		}
	}
	if err := s.pool.submit(t); err != nil {
		cancel()
		if errors.Is(err, errQueueFull) {
			s.met.shed.Add(1)
			return nil, &apiError{
				Status:     http.StatusTooManyRequests,
				Msg:        "job queue full, retry later",
				RetryAfter: s.retryAfterSeconds(),
			}
		}
		return nil, &apiError{Status: 503, Msg: "server is draining"}
	}
	go func() { <-t.done; cancel() }()
	return t, nil
}

// ---- HTTP handlers ----

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	body, aerr := readBody(buf, r.Body)
	if aerr != nil {
		s.met.badRequests.Add(1)
		writeErr(w, aerr)
		return
	}

	binReq := isBinContentType(r.Header.Get("Content-Type"))
	codec := respCodecFor(binReq, r.Header.Get("Accept"))

	// Raw fast path: a byte-identical body already answered with settled
	// quality is served straight from its stored encoding — no decode, no
	// graph/table resolution, no digest. The probe keys the cache by the raw
	// bytes (allocation-free) and is skipped when the compute-deadline header
	// is malformed, so the 400 contract of applyComputeDeadline still holds; a
	// well-formed header never changes a settled cached answer, so it does not
	// need to be part of the key. A stored entry missing the negotiated
	// response codec falls through; the solve path merges that encoding in.
	if h := r.Header.Get(DeadlineHeader); h == "" || validDeadlineHeader(h) {
		if v, ok := s.rawCache.getBytes(body); ok && !v.(*rawEntry).batch {
			if e := v.(*rawEntry); e.body[codec] != nil {
				s.met.requests.Add(1)
				s.met.cacheHits.Add(1)
				s.met.rawHits.Add(1)
				s.met.solveCached.Add(1)
				if e.quality != "" {
					w.Header().Set(QualityHeader, e.quality)
				}
				w.Header().Set("Content-Type", codec.contentType())
				w.WriteHeader(http.StatusOK)
				//hetsynth:ignore retval a failed write means the client is gone;
				// the response status is already committed.
				_, _ = w.Write(e.body[codec])
				return
			}
		}
	}

	var spec *solveSpec
	if binReq {
		var aerr *apiError
		if spec, aerr = decodeSolveRequestBin(body); aerr != nil {
			s.met.badRequests.Add(1)
			writeErr(w, aerr)
			return
		}
	} else if spec2, err := decodeSolveRequestBytes(body); err != nil {
		s.met.badRequests.Add(1)
		writeErr(w, err.(*apiError))
		return
	} else {
		spec = spec2
	}
	if aerr := applyComputeDeadline(spec, r); aerr != nil {
		s.met.badRequests.Add(1)
		writeErr(w, aerr)
		return
	}
	s.met.requests.Add(1)

	if res, source, apiErr := s.tryFast(spec); apiErr != nil {
		writeErr(w, apiErr)
		return
	} else if res != nil {
		s.writeResult(w, res, source, body, codec)
		return
	}

	// Piggyback on an identical in-flight solve without occupying a worker.
	if f, ok := s.flights.Join(spec.key); ok {
		select {
		case <-f.Done():
		case <-r.Context().Done():
			return
		}
		res, ferr := f.Result()
		if ferr != nil {
			writeErr(w, classifySolveErr(ferr))
			return
		}
		s.met.coalesced.Add(1)
		s.writeResult(w, res, "coalesced", nil, codec)
		return
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, s.solveBudget(spec))
	out := &solveOutcome{}
	t, apiErr := s.dispatch(ctx, cancel, func(ctx context.Context) {
		out.res, out.source, out.err = s.runSolve(ctx, spec)
	}, nil, nil)
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	select {
	case <-t.done:
	case <-r.Context().Done():
		// Client gone; the solve keeps running and lands in the cache.
		return
	case <-ctx.Done():
		// The compute budget expired with the task still queued or running.
		// Grant a short grace for the cooperative solver to observe the
		// cancellation and surface a partial (anytime) result; past that,
		// abandon the wait — a sync client is never parked behind a worker
		// that will not yield. After abandoning, out must not be read: the
		// worker may still write it.
		grace := time.NewTimer(abandonGrace)
		defer grace.Stop()
		select {
		case <-t.done:
		case <-r.Context().Done():
			return
		case <-grace.C:
			s.met.abandoned.Add(1)
			writeErr(w, &apiError{Status: 504, Msg: "solve exceeded its time budget"})
			return
		}
	}
	if out.res == nil && out.err == nil {
		// The task was skipped: its context died while queued.
		writeErr(w, classifySolveErr(ctx.Err()))
		return
	}
	if out.err != nil {
		writeErr(w, classifySolveErr(out.err))
		return
	}
	s.writeResult(w, out.res, out.source, nil, codec)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSolveRequest(r.Body)
	if err != nil {
		s.met.badRequests.Add(1)
		writeErr(w, err.(*apiError))
		return
	}
	if aerr := applyComputeDeadline(spec, r); aerr != nil {
		s.met.badRequests.Add(1)
		writeErr(w, aerr)
		return
	}
	s.met.requests.Add(1)

	j := &Job{ID: newJobID(), status: JobQueued, created: time.Now(), done: make(chan struct{})}

	// Fast paths complete the job before it ever reaches the queue.
	if res, source, apiErr := s.tryFast(spec); apiErr != nil {
		s.settleJob(j, JobFailed, source, nil, apiErr.Msg, apiErr.Status)
		s.jobs.add(j)
		s.met.jobsSubmitted.Add(1)
		writeJSON(w, http.StatusCreated, j.view())
		return
	} else if res != nil {
		if s.settleJob(j, JobDone, source, res, "", 0) {
			countEndpoint(&s.met.solveCached, &s.met.solveUncached, source)
		}
		s.jobs.add(j)
		s.met.jobsSubmitted.Add(1)
		writeJSON(w, http.StatusCreated, j.view())
		return
	}

	tctx, tcancel := context.WithTimeout(s.baseCtx, s.solveBudget(spec))
	jctx, jcancel := context.WithCancel(tctx)
	// j is not yet shared, but take the lock anyway: the guardedby invariant
	// is cheap here and survives any future reordering against jobs.add.
	j.mu.Lock()
	j.cancel = jcancel
	j.mu.Unlock()
	out := &solveOutcome{}
	finish := func() {
		switch {
		case out.res != nil:
			if s.settleJob(j, JobDone, out.source, out.res, "", 0) {
				countEndpoint(&s.met.solveCached, &s.met.solveUncached, out.source)
			}
		default:
			err := out.err
			if err == nil { // skipped in queue: context cancelled or timed out
				err = jctx.Err()
			}
			ae := classifySolveErr(err)
			status := JobFailed
			if errors.Is(err, context.Canceled) {
				status = JobCanceled
			}
			s.settleJob(j, status, "", nil, ae.Msg, ae.Status)
		}
	}
	// finish runs on the worker for executed jobs (so drain implies settled
	// jobs); the janitor below settles jobs whose context died while queued.
	t, apiErr := s.dispatch(jctx, func() { jcancel(); tcancel() }, func(ctx context.Context) {
		out.res, out.source, out.err = s.runSolve(ctx, spec)
	}, j.setRunning, finish)
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	s.jobs.add(j)
	s.met.jobsSubmitted.Add(1)
	go func() { <-t.done; finish() }()
	writeJSON(w, http.StatusCreated, j.view())
}

// settleJob finishes j and, when this call actually performed the terminal
// transition, bumps the matching terminal-state counter — keeping the books
// balanced (jobs_submitted == jobs_done + jobs_failed + jobs_canceled_final
// after a drain) even when a worker and the queue janitor race to settle the
// same job. It reports whether this call performed the transition, so
// endpoint-specific once-only accounting (e.g. the admit verdict ledger)
// can piggyback on the same dedup.
func (s *Server) settleJob(j *Job, status, source string, res any, errMsg string, errCode int) bool {
	if !j.finish(status, source, res, errMsg, errCode) {
		return false
	}
	switch status {
	case JobDone:
		s.met.jobsDone.Add(1)
	case JobCanceled:
		s.met.jobsCanceledFinal.Add(1)
	default:
		s.met.jobsFailed.Add(1)
	}
	return true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{Status: 404, Msg: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{Status: 404, Msg: "no such job"})
		return
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.met.jobsCanceled.Add(1)
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks": benchdfg.Names(),
		"catalogs":   fu.Catalogs(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.met.snapshot(s.cache.len(), s.sessions.len()))
}

// handlePeerz is GET /v1/peerz: the cluster health/load exchange. A router
// (cmd/hetsynthrouter) polls it at high frequency to steer consistent-hash
// weights, so it is deliberately a fraction of /metrics — a handful of
// counters, no histogram walk.
func (s *Server) handlePeerz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, PeerzSnapshot{
		Status:       status,
		Workers:      s.cfg.Workers,
		QueueDepth:   s.met.queueDepth.Load(),
		InFlight:     s.met.inFlight.Load(),
		MeanSolveMS:  float64(s.met.meanSolve()) / float64(time.Millisecond),
		CacheEntries: s.cache.len(),
		Sessions:     s.sessions.len(),
	})
}

// ---- response plumbing ----

// writeResult encodes a solve response through a pooled buffer — JSON or the
// binary frame, per the negotiated codec — and writes it in one shot. When
// rawKey is the verbatim request body and the answer came settled from the
// result cache, the encoded bytes are additionally stored in the raw-body
// cache so the next byte-identical request skips decoding and digesting
// entirely ("cache" is the only source stored: it is the steady state, its
// quality is settled by construction, and storing it verbatim keeps the
// source field of raw replays truthful).
func (s *Server) writeResult(w http.ResponseWriter, res *SolveResult, source string, rawKey []byte, codec codecID) {
	countEndpoint(&s.met.solveCached, &s.met.solveUncached, source)
	var out []byte
	if codec == codecBin {
		bb := getBinBuf()
		defer putBinBuf(bb)
		bb.b = appendSolveRespFrame(bb.b, &SolveResponse{Source: source, SolveResult: *res})
		out = bb.b
	} else {
		eb := getEncBuf()
		defer putEncBuf(eb)
		if err := eb.enc.Encode(SolveResponse{Source: source, SolveResult: *res}); err != nil {
			writeErr(w, &apiError{Status: 500, Msg: "encoding response: " + err.Error()})
			return
		}
		out = eb.buf.Bytes()
	}
	if res.Quality != "" {
		w.Header().Set(QualityHeader, res.Quality)
	}
	w.Header().Set("Content-Type", codec.contentType())
	w.WriteHeader(http.StatusOK)
	//hetsynth:ignore retval a failed write means the client is gone; the
	// response status is already committed and there is no recovery path.
	_, _ = w.Write(out)
	if source == "cache" && len(rawKey) > 0 && len(rawKey) <= maxRawKeyBytes {
		s.storeRaw(rawKey, codec, out, res.Quality, false, 1)
	}
}

// storeRaw (re)stores the raw-replay entry for key: the fresh encoding fills
// its codec's slot, and any encoding the previous entry already held for the
// other codec is carried over, so one entry always owns every produced
// encoding of the answer. Entries stay immutable — a merge builds a new one —
// and both codecs live under the one key, which is what makes their pin and
// eviction lifetime atomic.
func (s *Server) storeRaw(key []byte, codec codecID, enc []byte, quality string, batch bool, entries int) {
	e := &rawEntry{quality: quality, batch: batch, entries: entries}
	e.body[codec] = append([]byte(nil), enc...)
	if v, ok := s.rawCache.getBytes(key); ok {
		if old := v.(*rawEntry); old.batch == batch {
			for c := range old.body {
				if e.body[c] == nil {
					e.body[c] = old.body[c]
				}
			}
		}
	}
	s.rawCache.put(string(key), e)
}

func writeErr(w http.ResponseWriter, e *apiError) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	writeJSON(w, e.Status, map[string]any{"error": e.Msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	eb := getEncBuf()
	defer putEncBuf(eb)
	if err := eb.enc.Encode(v); err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//hetsynth:ignore retval a failed write means the client is gone; the
	// response status is already committed and there is no recovery path.
	_, _ = w.Write(eb.buf.Bytes())
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so the SSE handler's streaming
// contract survives the logging wrapper; the embedded interface alone would
// hide the underlying Flusher from type assertions.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.NewResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// logged wraps a handler with structured request logging. Servers built
// without a Logger skip the wrapper entirely: the hot path then writes
// straight to the ResponseWriter with no per-request wrapper allocation or
// discarded log records.
func (s *Server) logged(next http.Handler) http.Handler {
	if s.noLog {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", float64(time.Since(start))/float64(time.Millisecond),
		)
	})
}
