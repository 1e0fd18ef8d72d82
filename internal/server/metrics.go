package server

import (
	"strconv"
	"sync/atomic"
	"time"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// solve-latency histogram; the implicit last bucket is +Inf.
var latencyBucketsMS = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// metrics holds the server's operational counters. Everything is atomics so
// the hot path never takes a lock; /metrics renders a consistent-enough
// snapshot (individual counters are exact, cross-counter skew is bounded by
// in-flight requests).
type metrics struct {
	start time.Time

	queueDepth atomic.Int64 // tasks accepted but not yet running
	inFlight   atomic.Int64 // tasks currently on a worker

	requests      atomic.Int64 // HTTP solve/job submissions decoded OK
	badRequests   atomic.Int64 // 4xx rejections at decode/validation
	queueRejected atomic.Int64 // submissions bounced off a full queue

	cacheHits    atomic.Int64 // answered from the result cache
	rawHits      atomic.Int64 // subset of cacheHits served from the raw-body cache
	frontierHits atomic.Int64 // answered from a cached frontier curve
	coalesced    atomic.Int64 // shared another request's in-flight solve
	solves       atomic.Int64 // full solver executions
	solveErrors  atomic.Int64 // solver executions that returned an error

	batchRequests atomic.Int64 // POST /v1/solve-batch requests decoded OK
	batchEntries  atomic.Int64 // entries across all batch requests
	batchDeduped  atomic.Int64 // batch entries answered by an earlier duplicate in the same batch

	// Per-endpoint served-verdict split. "Cached" covers every answer
	// produced without a fresh execution on this node — raw-body replay,
	// result-cache and frontier-curve hits; "uncached" means a solver (or
	// admission analysis) ran, coalesced followers included (their answer
	// still cost an execution somewhere in this process). The batch pair
	// counts entries, not requests, so sweeps report their real hit depth.
	solveCached   atomic.Int64
	solveUncached atomic.Int64
	batchCached   atomic.Int64
	batchUncached atomic.Int64
	admitCached   atomic.Int64
	admitUncached atomic.Int64

	// forwardedIn counts requests relayed by a cluster router (the
	// ForwardedHeader was set), so an operator can read the share of a
	// node's traffic arriving via affinity routing off /metrics.
	forwardedIn atomic.Int64

	// Admission-control endpoint (/v1/admit). Every served verdict bumps
	// exactly one of accepted/rejected — cache hits included — so after all
	// admit traffic settles without errors or shedding,
	// admitRequests == admitAccepted + admitRejected.
	admitRequests    atomic.Int64 // admit submissions decoded OK (sync + jobs)
	admitAccepted    atomic.Int64 // verdicts served with the set admitted / a config found
	admitRejected    atomic.Int64 // verdicts served with the set rejected / no config
	admitSearchSteps atomic.Int64 // cumulative admission probes across fresh executions

	shed      atomic.Int64 // requests load-shed with 429 (queue full or predicted overload)
	abandoned atomic.Int64 // sync waits given up past deadline + grace (504, result discarded)
	degraded  atomic.Int64 // solver executions that returned a timeout-quality incumbent
	exactRes  atomic.Int64 // solver executions that returned a proven-optimal result

	// Stateful sessions (/v1/instances). patches counts accepted delta
	// batches; patchesRejected the 400s (also counted under badRequests when
	// the body itself was malformed). sseDropped counts frames shed by slow
	// subscribers' drop-oldest mailboxes.
	sessionsCreated atomic.Int64
	sessionsEvicted atomic.Int64
	patches         atomic.Int64
	patchesRejected atomic.Int64
	sseFrames       atomic.Int64
	sseDropped      atomic.Int64

	jobsSubmitted atomic.Int64
	jobsCanceled  atomic.Int64 // DELETE /v1/jobs/{id} cancel requests
	// Terminal job states; after a drain,
	// jobsSubmitted == jobsDone + jobsFailed + jobsCanceledFinal.
	jobsDone          atomic.Int64
	jobsFailed        atomic.Int64
	jobsCanceledFinal atomic.Int64

	latCount atomic.Int64
	latSumUS atomic.Int64   // microseconds, summed over solves
	latHist  []atomic.Int64 // len(latencyBucketsMS)+1; last is +Inf
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), latHist: make([]atomic.Int64, len(latencyBucketsMS)+1)}
}

// observeSolve records one full solver execution's wall time.
func (m *metrics) observeSolve(d time.Duration) {
	m.latCount.Add(1)
	m.latSumUS.Add(d.Microseconds())
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	m.latHist[i].Add(1)
}

// countEndpoint bumps one side of a per-endpoint cached/uncached pair for a
// served result, keyed by its response source annotation: cache, frontier and
// raw replays were answered from held state; solve and coalesced paid (or
// rode) a fresh execution.
func countEndpoint(cached, uncached *atomic.Int64, source string) {
	switch source {
	case "cache", "frontier", "raw":
		cached.Add(1)
	default:
		uncached.Add(1)
	}
}

// meanSolve returns the observed mean solver-execution latency, or zero
// before any solve has completed. It feeds the queue-wait estimate behind
// admission control and Retry-After hints.
func (m *metrics) meanSolve() time.Duration {
	n := m.latCount.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(m.latSumUS.Load()/n) * time.Microsecond
}

// MetricsSnapshot is the JSON layout of GET /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`

	Requests      int64 `json:"requests"`
	BadRequests   int64 `json:"bad_requests"`
	QueueRejected int64 `json:"queue_rejected"`

	CacheHits    int64   `json:"cache_hits"`
	RawHits      int64   `json:"raw_hits"`
	FrontierHits int64   `json:"frontier_hits"`
	Coalesced    int64   `json:"coalesced"`
	Solves       int64   `json:"solves"`
	SolveErrors  int64   `json:"solve_errors"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	BatchRequests int64 `json:"batch_requests"`
	BatchEntries  int64 `json:"batch_entries"`
	BatchDeduped  int64 `json:"batch_deduped"`

	Endpoints   EndpointCounters `json:"endpoints"`
	ForwardedIn int64            `json:"forwarded_in"`

	AdmitRequests    int64 `json:"admit_requests"`
	AdmitAccepted    int64 `json:"admit_accepted"`
	AdmitRejected    int64 `json:"admit_rejected"`
	AdmitSearchSteps int64 `json:"admit_search_steps"`

	Shed      int64 `json:"shed"`
	Abandoned int64 `json:"abandoned"`
	Degraded  int64 `json:"degraded"`
	ExactRes  int64 `json:"exact_results"`

	SessionsActive  int   `json:"sessions_active"`
	SessionsCreated int64 `json:"sessions_created"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	Patches         int64 `json:"patches"`
	PatchesRejected int64 `json:"patches_rejected"`
	SSEFrames       int64 `json:"sse_frames"`
	SSEDropped      int64 `json:"sse_dropped"`

	JobsSubmitted     int64 `json:"jobs_submitted"`
	JobsCanceled      int64 `json:"jobs_canceled"`
	JobsDone          int64 `json:"jobs_done"`
	JobsFailed        int64 `json:"jobs_failed"`
	JobsCanceledFinal int64 `json:"jobs_canceled_final"`

	SolveLatency histogramSnapshot `json:"solve_latency"`
}

// EndpointCounters is the per-endpoint cached-vs-uncached split in /metrics:
// how many served verdicts each endpoint answered from held state (raw
// replay, result cache, frontier curve) versus by running an execution. The
// batch pair counts entries, not requests.
type EndpointCounters struct {
	SolveCached          int64 `json:"solve_cached"`
	SolveUncached        int64 `json:"solve_uncached"`
	BatchEntriesCached   int64 `json:"batch_entries_cached"`
	BatchEntriesUncached int64 `json:"batch_entries_uncached"`
	AdmitCached          int64 `json:"admit_cached"`
	AdmitUncached        int64 `json:"admit_uncached"`
}

type histogramSnapshot struct {
	Count     int64          `json:"count"`
	MeanMS    float64        `json:"mean_ms"`
	BucketsMS []bucketSample `json:"buckets_ms"`
}

type bucketSample struct {
	LE    string `json:"le"` // bucket upper bound in ms; "+Inf" for the last
	Count int64  `json:"count"`
}

// snapshot renders the current counters.
func (m *metrics) snapshot(cacheEntries, sessionsActive int) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		QueueDepth:    m.queueDepth.Load(),
		InFlight:      m.inFlight.Load(),
		Requests:      m.requests.Load(),
		BadRequests:   m.badRequests.Load(),
		QueueRejected: m.queueRejected.Load(),
		CacheHits:     m.cacheHits.Load(),
		RawHits:       m.rawHits.Load(),
		FrontierHits:  m.frontierHits.Load(),
		Coalesced:     m.coalesced.Load(),
		Solves:        m.solves.Load(),
		SolveErrors:   m.solveErrors.Load(),
		CacheEntries:  cacheEntries,
		BatchRequests: m.batchRequests.Load(),
		BatchEntries:  m.batchEntries.Load(),
		BatchDeduped:  m.batchDeduped.Load(),
		Endpoints: EndpointCounters{
			SolveCached:          m.solveCached.Load(),
			SolveUncached:        m.solveUncached.Load(),
			BatchEntriesCached:   m.batchCached.Load(),
			BatchEntriesUncached: m.batchUncached.Load(),
			AdmitCached:          m.admitCached.Load(),
			AdmitUncached:        m.admitUncached.Load(),
		},
		ForwardedIn:      m.forwardedIn.Load(),
		AdmitRequests:    m.admitRequests.Load(),
		AdmitAccepted:    m.admitAccepted.Load(),
		AdmitRejected:    m.admitRejected.Load(),
		AdmitSearchSteps: m.admitSearchSteps.Load(),

		Shed:      m.shed.Load(),
		Abandoned: m.abandoned.Load(),
		Degraded:  m.degraded.Load(),
		ExactRes:  m.exactRes.Load(),

		SessionsActive:  sessionsActive,
		SessionsCreated: m.sessionsCreated.Load(),
		SessionsEvicted: m.sessionsEvicted.Load(),
		Patches:         m.patches.Load(),
		PatchesRejected: m.patchesRejected.Load(),
		SSEFrames:       m.sseFrames.Load(),
		SSEDropped:      m.sseDropped.Load(),

		JobsSubmitted:     m.jobsSubmitted.Load(),
		JobsCanceled:      m.jobsCanceled.Load(),
		JobsDone:          m.jobsDone.Load(),
		JobsFailed:        m.jobsFailed.Load(),
		JobsCanceledFinal: m.jobsCanceledFinal.Load(),
	}
	served := s.CacheHits + s.FrontierHits + s.Coalesced + s.Solves
	if served > 0 {
		s.CacheHitRate = float64(s.CacheHits+s.FrontierHits) / float64(served)
	}
	s.SolveLatency.Count = m.latCount.Load()
	if s.SolveLatency.Count > 0 {
		s.SolveLatency.MeanMS = float64(m.latSumUS.Load()) / 1000 / float64(s.SolveLatency.Count)
	}
	for i := range m.latHist {
		le := "+Inf"
		if i < len(latencyBucketsMS) {
			le = strconv.FormatFloat(latencyBucketsMS[i], 'f', -1, 64)
		}
		s.SolveLatency.BucketsMS = append(s.SolveLatency.BucketsMS, bucketSample{LE: le, Count: m.latHist[i].Load()})
	}
	return s
}
