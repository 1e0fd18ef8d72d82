package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// maxBatchEntries bounds one POST /v1/solve-batch body; a sweep larger than
// this should be split client-side so admission control can interleave other
// traffic between the chunks.
const maxBatchEntries = 256

// BatchRequest is the JSON body of POST /v1/solve-batch: an ordered list of
// ordinary solve requests answered together. Entries that share a graph and
// table (a deadline sweep) are solved through one shared frontier DP instead
// of one solve each, and byte-identical duplicates are answered once.
type BatchRequest struct {
	Entries []SolveRequest `json:"entries"`
}

// BatchEntryResult is the outcome of one batch entry, in request order.
// Exactly one of Result or Error is set; Status carries the HTTP status the
// same request would have received on /v1/solve (errors only).
type BatchEntryResult struct {
	Source string       `json:"source,omitempty"`
	Result *SolveResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
	Status int          `json:"status,omitempty"`
}

// BatchResponse is the JSON body answering POST /v1/solve-batch. The batch
// itself is always 200 once decoded; per-entry failures are isolated in
// Results.
type BatchResponse struct {
	Results   []BatchEntryResult `json:"results"`
	Entries   int                `json:"entries"`
	Deduped   int                `json:"deduped"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// batchGroup is the unit of pool work for a batch: all distinct entries that
// can share solver state. Tree-shaped entries of the same instance digest
// form one group (they share one FrontierSolver: the first solve builds the
// complete curve, the rest are pure tracebacks); everything else is a group
// of one.
type batchGroup struct {
	specs []*solveSpec
	idxs  []int // positions in the response array, parallel to specs
}

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
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

	// Raw replay: a byte-identical batch whose every entry settled is served
	// from its stored encoding — same contract as the /v1/solve fast path. An
	// entry missing the negotiated response codec falls through to a normal
	// run, which merges the fresh encoding in.
	hdrOK := true
	if h := r.Header.Get(DeadlineHeader); h != "" && !validDeadlineHeader(h) {
		hdrOK = false
	}
	if hdrOK {
		if v, ok := s.rawCache.getBytes(body); ok && v.(*rawEntry).batch {
			if e := v.(*rawEntry); e.body[codec] != nil {
				s.met.batchRequests.Add(1)
				s.met.cacheHits.Add(1)
				s.met.rawHits.Add(1)
				s.met.batchCached.Add(int64(e.entries))
				w.Header().Set("Content-Type", codec.contentType())
				w.WriteHeader(http.StatusOK)
				//hetsynth:ignore retval a failed write means the client is gone;
				// the response status is already committed.
				_, _ = w.Write(e.body[codec])
				return
			}
		}
	}

	// Decode per the request codec into one resolved entry list. Semantic
	// failures (unknown bench, bad deadline) are isolated per entry so one
	// malformed sweep point never voids the rest of the batch; an unparseable
	// encoding rejects the whole body.
	var entries []binBatchEntry
	if binReq {
		var aerr *apiError
		if entries, aerr = decodeBatchRequestBin(body); aerr != nil {
			s.met.badRequests.Add(1)
			writeErr(w, aerr)
			return
		}
	} else {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var breq BatchRequest
		if err := dec.Decode(&breq); err != nil {
			s.met.badRequests.Add(1)
			writeErr(w, badRequest("invalid batch JSON: %v", err))
			return
		}
		if len(breq.Entries) == 0 {
			s.met.badRequests.Add(1)
			writeErr(w, badRequest("batch has no entries"))
			return
		}
		if len(breq.Entries) > maxBatchEntries {
			s.met.badRequests.Add(1)
			writeErr(w, badRequest("batch has %d entries, maximum is %d", len(breq.Entries), maxBatchEntries))
			return
		}
		entries = make([]binBatchEntry, len(breq.Entries))
		for i := range breq.Entries {
			spec, err := resolve(&breq.Entries[i], nil)
			if err != nil {
				entries[i].aerr = err.(*apiError)
				continue
			}
			entries[i].spec = spec
		}
	}
	// A malformed compute-deadline header rejects the whole batch, matching
	// the /v1/solve contract (silently ignoring it would fake compliance).
	if !hdrOK {
		s.met.badRequests.Add(1)
		writeErr(w, badRequest("invalid %s header %q: want a positive integer millisecond count",
			DeadlineHeader, r.Header.Get(DeadlineHeader)))
		return
	}
	s.met.batchRequests.Add(1)
	s.met.batchEntries.Add(int64(len(entries)))

	out := make([]BatchEntryResult, len(entries))
	specs := make([]*solveSpec, len(entries))

	firstIdx := make(map[string]int, len(entries)) // request digest -> leader entry
	leader := make([]int, len(entries))            // -1: distinct; else: index answered for us
	deduped := 0
	for i := range entries {
		leader[i] = -1
		if ae := entries[i].aerr; ae != nil {
			out[i] = BatchEntryResult{Error: ae.Msg, Status: ae.Status}
			continue
		}
		spec := entries[i].spec
		if aerr := applyComputeDeadline(spec, r); aerr != nil {
			out[i] = BatchEntryResult{Error: aerr.Msg, Status: aerr.Status}
			continue
		}
		if j, ok := firstIdx[spec.key]; ok {
			leader[i] = j
			deduped++
			continue
		}
		firstIdx[spec.key] = i
		specs[i] = spec
	}
	s.met.batchDeduped.Add(int64(deduped))

	// Answer what the caches already know, then group the rest for the pool.
	groups := make(map[string]*batchGroup)
	var order []*batchGroup
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		if res, source, apiErr := s.tryFast(spec); apiErr != nil {
			out[i] = BatchEntryResult{Error: apiErr.Msg, Status: apiErr.Status}
			continue
		} else if res != nil {
			out[i] = BatchEntryResult{Source: source, Result: res}
			continue
		}
		key := "solo/" + spec.key
		if spec.tree {
			key = spec.instKey
		}
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{}
			groups[key] = g
			order = append(order, g)
		}
		g.specs = append(g.specs, spec)
		g.idxs = append(g.idxs, i)
	}

	// Fan the groups out over the worker pool; each group runs sequentially
	// on one worker so a sweep's entries reuse the frontier it just built.
	type submitted struct {
		g      *batchGroup
		t      *task
		ctx    context.Context
		ran    bool
		cancel context.CancelFunc
	}
	var subs []*submitted
	for _, g := range order {
		budget := time.Duration(0)
		for _, spec := range g.specs {
			if b := s.solveBudget(spec); b > budget {
				budget = b
			}
		}
		gctx, gcancel := context.WithTimeout(s.baseCtx, budget)
		sub := &submitted{g: g, ctx: gctx, cancel: gcancel}
		sub.t = &task{
			ctx:  gctx,
			done: make(chan struct{}),
			run: func(ctx context.Context) {
				sub.ran = true
				s.runBatchGroup(ctx, g, out)
			},
		}
		if s.draining.Load() {
			gcancel()
			for _, i := range g.idxs {
				out[i] = BatchEntryResult{Error: "server is draining", Status: 503}
			}
			continue
		}
		if err := s.pool.submit(sub.t); err != nil {
			gcancel()
			ae := &apiError{Status: 503, Msg: "server is draining"}
			if errors.Is(err, errQueueFull) {
				s.met.shed.Add(1)
				ae = &apiError{Status: http.StatusTooManyRequests, Msg: "job queue full, retry later"}
			}
			for _, i := range g.idxs {
				out[i] = BatchEntryResult{Error: ae.Msg, Status: ae.Status}
			}
			continue
		}
		go func() { <-sub.t.done; sub.cancel() }()
		subs = append(subs, sub)
	}

	// Wait for every submitted group. A vanished client abandons the wait but
	// not the solves — results still land in the caches for the retry.
	for _, sub := range subs {
		select {
		case <-sub.t.done:
		case <-r.Context().Done():
			return
		}
		if !sub.ran {
			// Skipped in the queue: its context died before a worker got to it.
			ae := classifySolveErr(sub.ctx.Err())
			for _, i := range sub.g.idxs {
				out[i] = BatchEntryResult{Error: ae.Msg, Status: ae.Status}
			}
		}
	}

	// Fill duplicates from their leaders last, so they see final outcomes.
	for i, j := range leader {
		if j >= 0 {
			out[i] = out[j]
		}
	}
	for i := range out {
		if out[i].Result != nil {
			countEndpoint(&s.met.batchCached, &s.met.batchUncached, out[i].Source)
		}
	}
	resp := BatchResponse{
		Results:   out,
		Entries:   len(entries),
		Deduped:   deduped,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	var enc []byte
	if codec == codecBin {
		bb := getBinBuf()
		defer putBinBuf(bb)
		bb.b = appendBatchRespFrame(bb.b, &resp)
		enc = bb.b
	} else {
		eb := getEncBuf()
		defer putEncBuf(eb)
		if err := eb.enc.Encode(resp); err != nil {
			writeErr(w, &apiError{Status: 500, Msg: "encoding response: " + err.Error()})
			return
		}
		enc = eb.buf.Bytes()
	}
	w.Header().Set("Content-Type", codec.contentType())
	w.WriteHeader(http.StatusOK)
	//hetsynth:ignore retval a failed write means the client is gone; the
	// response status is already committed and there is no recovery path.
	_, _ = w.Write(enc)

	// Store the encoding for raw replay only when every entry settled with a
	// real result (transient errors — timeouts, load shed, draining — and
	// timeout-quality incumbents are run-dependent and must re-run).
	if len(body) <= maxRawKeyBytes && batchSettled(out) {
		s.storeRaw(body, codec, enc, "", true, len(out))
	}
}

// batchSettled reports whether every entry carries a deterministic settled
// result, making the whole response safe to replay for an identical body.
func batchSettled(out []BatchEntryResult) bool {
	for i := range out {
		if out[i].Result == nil || out[i].Result.Quality == "timeout" {
			return false
		}
	}
	return true
}

// runBatchGroup solves a group's entries in order on one worker. Errors are
// per entry (a tight infeasible sweep point does not abort its siblings);
// only context death cuts the remainder short. For tree groups, the shared
// FrontierSolver's cache entry is pinned from the moment the first entry has
// built it until the group finishes, so the sweep's own result insertions
// (or concurrent traffic) cannot evict the solver mid-flight.
func (s *Server) runBatchGroup(ctx context.Context, g *batchGroup, out []BatchEntryResult) {
	pinnedKey := ""
	defer func() {
		if pinnedKey != "" {
			s.cache.release(pinnedKey)
		}
	}()
	for j, spec := range g.specs {
		if err := ctx.Err(); err != nil {
			ae := classifySolveErr(err)
			for _, i := range g.idxs[j:] {
				out[i] = BatchEntryResult{Error: ae.Msg, Status: ae.Status}
			}
			return
		}
		res, source, err := s.runSolve(ctx, spec)
		if err != nil {
			ae := classifySolveErr(err)
			out[g.idxs[j]] = BatchEntryResult{Error: ae.Msg, Status: ae.Status}
		} else {
			out[g.idxs[j]] = BatchEntryResult{Source: source, Result: res}
		}
		if pinnedKey == "" && spec.tree {
			if _, ok := s.cache.acquire(spec.instKey); ok {
				pinnedKey = spec.instKey
			}
		}
	}
}
