package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"hetsynth/internal/canon"
	"hetsynth/internal/hap"
	"hetsynth/internal/rta"
)

// AdmitRequest is the JSON body of POST /v1/admit and POST /v1/admit/jobs:
// a set of periodic tasks sharing one FU library, asked against either a
// fixed FU configuration ("config") or a cheapest-fit search ("search") —
// exactly one of the two.
//
// Each task resolves its graph and table exactly like POST /v1/solve
// (inline graph or bench name; inline table, catalog or seed) and adds a
// period plus an optional relative deadline (default: the period).
type AdmitRequest struct {
	Tasks []AdmitTaskPayload `json:"tasks"`

	Config []int               `json:"config,omitempty"`
	Search *AdmitSearchPayload `json:"search,omitempty"`

	MaxCandidates int `json:"max_candidates,omitempty"` // operating points per task; default 6
	TimeoutMS     int `json:"timeout_ms,omitempty"`
}

// AdmitTaskPayload is one periodic task of an admission request.
type AdmitTaskPayload struct {
	Name  string          `json:"name,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`
	Bench string          `json:"bench,omitempty"`

	Table   *TablePayload `json:"table,omitempty"`
	Catalog string        `json:"catalog,omitempty"`
	Seed    *int64        `json:"seed,omitempty"`
	Types   int           `json:"types,omitempty"`

	Period   int `json:"period"`
	Deadline int `json:"deadline,omitempty"` // relative; default = period
}

// AdmitSearchPayload selects cheapest-fit configuration search: per-type
// instance prices (default all 1) and a per-type instance ceiling (default
// 8, at most rta.MaxPartition).
type AdmitSearchPayload struct {
	Prices     []int64 `json:"prices,omitempty"`
	MaxPerType int     `json:"max_per_type,omitempty"`
}

// AdmitPlacementPayload is the wire form of one admitted task's placement:
// the chosen assignment and whether the task runs on a dedicated heavy
// partition or a shared serialized channel, with its proven response bound.
type AdmitPlacementPayload struct {
	Task       int    `json:"task"`
	Name       string `json:"name,omitempty"`
	Heavy      bool   `json:"heavy"`
	Partition  []int  `json:"partition,omitempty"`
	Channel    int    `json:"channel"` // -1 for heavy placements
	Assignment []int  `json:"assignment"`
	Length     int    `json:"length"`
	TotalWork  int64  `json:"total_work"`
	Energy     int64  `json:"energy"`
	Response   int    `json:"response"`
}

// AdmitResult is the cacheable outcome of one admission analysis. Fixed-
// configuration requests report Admitted plus placements; search requests
// additionally report Found, the winning Config, its Price and the probe
// count Steps. Quality mirrors the weakest per-task solve quality
// ("exact", "heuristic" or "timeout").
type AdmitResult struct {
	Admitted   bool                    `json:"admitted"`
	Found      *bool                   `json:"found,omitempty"`
	Config     []int                   `json:"config,omitempty"`
	Price      *int64                  `json:"price,omitempty"`
	Steps      int                     `json:"steps"`
	Placements []AdmitPlacementPayload `json:"placements,omitempty"`
	Channels   [][]int                 `json:"channels,omitempty"`
	Used       []int                   `json:"used,omitempty"`
	Reason     string                  `json:"reason,omitempty"`
	Quality    string                  `json:"quality,omitempty"`
	ElapsedMS  float64                 `json:"elapsed_ms"`
}

// AdmitResponse is AdmitResult plus how the answer was produced.
type AdmitResponse struct {
	Source string `json:"source"` // "admit" or "cache"
	AdmitResult
}

// admitSpec is a fully resolved admission request: the concrete task set,
// the mode (fixed config or search), and the canonical cache key.
type admitSpec struct {
	set     rta.TaskSet
	cfg     rta.Config // nil in search mode
	search  bool
	so      rta.SearchOptions
	opts    rta.Options
	timeout int    // milliseconds; 0 = server default
	key     string // result-cache key ("admit/" + digest)
}

// decodeAdmitRequest parses and fully validates an admission body: every
// rejection is a 400 *apiError, and an accepted spec is guaranteed to pass
// rta's own input validation, so the execution path can only fail on
// context death. Mirrors decodeSolveRequestBytes' contract.
func decodeAdmitRequest(body []byte) (*admitSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req AdmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid request JSON: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after request object")
	}
	if len(req.Tasks) == 0 {
		return nil, badRequest("tasks is required and must be non-empty")
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("negative timeout_ms %d", req.TimeoutMS)
	}
	if req.MaxCandidates < 0 || req.MaxCandidates > 64 {
		return nil, badRequest("max_candidates %d out of range [0, 64]", req.MaxCandidates)
	}
	if req.Config != nil && req.Search != nil {
		return nil, badRequest("use either config or search, not both")
	}
	if req.Config == nil && req.Search == nil {
		return nil, badRequest("a mode is required: set config or search")
	}

	spec := &admitSpec{
		timeout: req.TimeoutMS,
		opts:    rta.Options{MaxCandidates: req.MaxCandidates},
	}
	keyTasks := make([]canon.AdmitTask, 0, len(req.Tasks))
	for i, tp := range req.Tasks {
		// Reuse the solve resolvers for the graph/table sources, so admit
		// accepts exactly the shapes /v1/solve does.
		sub := &SolveRequest{
			Graph: tp.Graph, Bench: tp.Bench,
			Table: tp.Table, Catalog: tp.Catalog, Seed: tp.Seed, Types: tp.Types,
		}
		g, err := resolveGraph(sub, nil)
		if err != nil {
			return nil, badRequest("task %d: %v", i, err.(*apiError).Msg)
		}
		tab, err := resolveTable(sub, g)
		if err != nil {
			return nil, badRequest("task %d: %v", i, err.(*apiError).Msg)
		}
		if tp.Period < 1 || tp.Period > maxDeadline {
			return nil, badRequest("task %d: period %d out of range [1, %d]", i, tp.Period, maxDeadline)
		}
		if tp.Deadline < 0 || tp.Deadline > tp.Period {
			return nil, badRequest("task %d: deadline %d not in [0, period %d] (0 means the period)", i, tp.Deadline, tp.Period)
		}
		t := rta.Task{Name: tp.Name, Graph: g, Table: tab, Period: tp.Period, Deadline: tp.Deadline}
		spec.set = append(spec.set, t)
		keyTasks = append(keyTasks, canon.AdmitTask{Graph: g, Table: tab, Period: t.Period, Deadline: t.RelDeadline()})
	}
	if err := spec.set.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}

	k := spec.set.K()
	if req.Config != nil {
		if len(req.Config) != k {
			return nil, badRequest("config covers %d FU types, tasks share %d", len(req.Config), k)
		}
		for ky, m := range req.Config {
			if m < 0 || m > rta.MaxPartition*len(req.Tasks) {
				return nil, badRequest("config count %d for type %d out of range", m, ky)
			}
		}
		spec.cfg = append(rta.Config(nil), req.Config...)
	} else {
		spec.search = true
		if req.Search.Prices != nil {
			if len(req.Search.Prices) != k {
				return nil, badRequest("search.prices covers %d FU types, tasks share %d", len(req.Search.Prices), k)
			}
			for ky, p := range req.Search.Prices {
				if p < 0 || p > 1<<40 {
					return nil, badRequest("search.prices[%d] = %d out of range [0, 2^40]", ky, p)
				}
			}
			spec.so.Prices = append([]int64(nil), req.Search.Prices...)
		}
		if req.Search.MaxPerType < 0 || req.Search.MaxPerType > rta.MaxPartition {
			return nil, badRequest("search.max_per_type %d out of range [0, %d]", req.Search.MaxPerType, rta.MaxPartition)
		}
		spec.so.MaxPerType = req.Search.MaxPerType
	}

	spec.key = "admit/" + canon.AdmitKey(keyTasks, spec.cfg, spec.so.Prices, spec.so.MaxPerType, spec.opts.MaxCandidates)
	return spec, nil
}

// buildAdmitResult converts an rta verdict (and, in search mode, the search
// outcome) into the wire result.
func (s *Server) buildAdmitResult(spec *admitSpec, v rta.Verdict, sr *rta.SearchResult, elapsed time.Duration) *AdmitResult {
	res := &AdmitResult{
		Admitted:  v.Admitted,
		Channels:  v.Channels,
		Used:      v.Used,
		Reason:    v.Reason,
		Quality:   string(v.Quality),
		Steps:     1,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	for _, p := range v.Placements {
		res.Placements = append(res.Placements, AdmitPlacementPayload{
			Task:       p.Task,
			Name:       spec.set[p.Task].Name,
			Heavy:      p.Heavy,
			Partition:  p.Partition,
			Channel:    p.Channel,
			Assignment: assignmentInts(p.Assign),
			Length:     p.Length,
			TotalWork:  p.TotalWork,
			Energy:     p.Energy,
			Response:   p.Response,
		})
	}
	if sr != nil {
		found := sr.Found
		res.Found = &found
		res.Steps = sr.Steps
		res.Quality = string(sr.Quality)
		if sr.Found {
			price := sr.Price
			res.Config = sr.Config
			res.Price = &price
		} else if res.Reason == "" {
			res.Reason = sr.Reason
		}
	}
	return res
}

// runAdmit answers an admission request: result cache first, then a fresh
// analysis. Fresh verdicts are cached under the canonical key unless their
// quality degraded to timeout (a roomier budget deserves a fresh run —
// same policy as solves). Admission latencies feed the shared solve
// histogram, so /metrics and the overload estimator see admit load too.
func (s *Server) runAdmit(ctx context.Context, spec *admitSpec) (*AdmitResult, string, error) {
	if v, ok := s.cache.get(spec.key); ok {
		s.met.cacheHits.Add(1)
		return v.(*AdmitResult), "cache", nil
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	start := time.Now()
	if s.preSolve != nil {
		s.preSolve(ctx)
	}
	var res *AdmitResult
	if spec.search {
		sr, err := rta.CheapestConfig(ctx, spec.set, spec.so, spec.opts)
		if err != nil {
			s.met.solveErrors.Add(1)
			return nil, "", err
		}
		res = s.buildAdmitResult(spec, sr.Verdict, &sr, time.Since(start))
		res.Admitted = sr.Found
	} else {
		v, err := rta.Admit(ctx, spec.set, spec.cfg, spec.opts)
		if err != nil {
			s.met.solveErrors.Add(1)
			return nil, "", err
		}
		res = s.buildAdmitResult(spec, v, nil, time.Since(start))
	}
	s.met.admitSearchSteps.Add(int64(res.Steps))
	s.met.observeSolve(time.Since(start))
	if res.Quality != string(hap.QualityTimeout) {
		s.cache.put(spec.key, res)
	}
	return res, "admit", nil
}

// serveAdmitResult writes a finished admission response and settles the
// outcome counters: exactly one of admit_accepted/admit_rejected per served
// verdict, cache hits included.
func (s *Server) serveAdmitResult(w http.ResponseWriter, res *AdmitResult, source string) {
	s.countAdmitVerdict(res)
	countEndpoint(&s.met.admitCached, &s.met.admitUncached, source)
	if res.Quality != "" {
		w.Header().Set(QualityHeader, res.Quality)
	}
	writeJSON(w, http.StatusOK, AdmitResponse{Source: source, AdmitResult: *res})
}

// countAdmitVerdict bumps the accepted/rejected balance for one served
// verdict.
func (s *Server) countAdmitVerdict(res *AdmitResult) {
	if res.Admitted {
		s.met.admitAccepted.Add(1)
	} else {
		s.met.admitRejected.Add(1)
	}
}

// handleAdmit is POST /v1/admit: the synchronous admission endpoint. It
// shares the solve pipeline's budgets (body timeout_ms, DeadlineHeader,
// server caps), pool admission control (429 shedding with Retry-After) and
// abandon semantics; the verdict quality is echoed in QualityHeader.
func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	body, aerr := readBody(buf, r.Body)
	if aerr != nil {
		s.met.badRequests.Add(1)
		writeErr(w, aerr)
		return
	}
	spec, err := decodeAdmitRequest(body)
	if err != nil {
		s.met.badRequests.Add(1)
		writeErr(w, err.(*apiError))
		return
	}
	if aerr := s.applyAdmitDeadline(spec, r); aerr != nil {
		writeErr(w, aerr)
		return
	}
	s.met.requests.Add(1)
	s.met.admitRequests.Add(1)

	if v, ok := s.cache.get(spec.key); ok {
		s.met.cacheHits.Add(1)
		s.serveAdmitResult(w, v.(*AdmitResult), "cache")
		return
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, s.solveBudget(&solveSpec{timeout: spec.timeout}))
	out := &admitOutcome{}
	t, apiErr := s.dispatch(ctx, cancel, func(ctx context.Context) {
		out.res, out.source, out.err = s.runAdmit(ctx, spec)
	}, nil, nil)
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	select {
	case <-t.done:
	case <-r.Context().Done():
		return // client gone; the analysis keeps running and lands in the cache
	case <-ctx.Done():
		// Budget expired with the task queued or running; grant the anytime
		// search a short grace to surface its best-so-far, then abandon.
		grace := time.NewTimer(abandonGrace)
		defer grace.Stop()
		select {
		case <-t.done:
		case <-r.Context().Done():
			return
		case <-grace.C:
			s.met.abandoned.Add(1)
			writeErr(w, &apiError{Status: 504, Msg: "admission analysis exceeded its time budget"})
			return
		}
	}
	if out.res == nil && out.err == nil {
		writeErr(w, classifySolveErr(ctx.Err()))
		return
	}
	if out.err != nil {
		writeErr(w, classifySolveErr(out.err))
		return
	}
	s.serveAdmitResult(w, out.res, out.source)
}

type admitOutcome struct {
	res    *AdmitResult
	source string
	err    error
}

// applyAdmitDeadline folds the DeadlineHeader into the spec's budget,
// counting a malformed header as a bad request (the solve contract).
func (s *Server) applyAdmitDeadline(spec *admitSpec, r *http.Request) *apiError {
	ms, aerr := computeDeadlineMS(r)
	if aerr != nil {
		s.met.badRequests.Add(1)
		return aerr
	}
	if ms > 0 && (spec.timeout == 0 || ms < spec.timeout) {
		spec.timeout = ms
	}
	return nil
}

// handleAdmitJobSubmit is POST /v1/admit/jobs: the asynchronous flavor of
// /v1/admit. The created job lives in the same store as solve jobs (GET
// /v1/jobs/{id}, DELETE to cancel) with an *AdmitResult payload; terminal
// counters stay balanced through settleJob exactly like solve jobs.
func (s *Server) handleAdmitJobSubmit(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	body, aerr := readBody(buf, r.Body)
	if aerr != nil {
		s.met.badRequests.Add(1)
		writeErr(w, aerr)
		return
	}
	spec, err := decodeAdmitRequest(body)
	if err != nil {
		s.met.badRequests.Add(1)
		writeErr(w, err.(*apiError))
		return
	}
	if aerr := s.applyAdmitDeadline(spec, r); aerr != nil {
		writeErr(w, aerr)
		return
	}
	s.met.requests.Add(1)
	s.met.admitRequests.Add(1)

	j := &Job{ID: newJobID(), status: JobQueued, created: time.Now(), done: make(chan struct{})}
	if v, ok := s.cache.get(spec.key); ok {
		s.met.cacheHits.Add(1)
		res := v.(*AdmitResult)
		if s.settleJob(j, JobDone, "cache", res, "", 0) {
			s.countAdmitVerdict(res)
			s.met.admitCached.Add(1)
		}
		s.jobs.add(j)
		s.met.jobsSubmitted.Add(1)
		writeJSON(w, http.StatusCreated, j.view())
		return
	}

	tctx, tcancel := context.WithTimeout(s.baseCtx, s.solveBudget(&solveSpec{timeout: spec.timeout}))
	jctx, jcancel := context.WithCancel(tctx)
	j.mu.Lock()
	j.cancel = jcancel
	j.mu.Unlock()
	out := &admitOutcome{}
	finish := func() {
		switch {
		case out.res != nil:
			if s.settleJob(j, JobDone, out.source, out.res, "", 0) {
				s.countAdmitVerdict(out.res)
				countEndpoint(&s.met.admitCached, &s.met.admitUncached, out.source)
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
	t, apiErr := s.dispatch(jctx, func() { jcancel(); tcancel() }, func(ctx context.Context) {
		out.res, out.source, out.err = s.runAdmit(ctx, spec)
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
