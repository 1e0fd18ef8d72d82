package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"hetsynth/internal/canon"
	"hetsynth/internal/cluster"
	"hetsynth/internal/cptree"
	"hetsynth/internal/dfg"
	"hetsynth/internal/hap"
	"hetsynth/internal/rta"
	"hetsynth/internal/sched"
	"hetsynth/internal/server"
)

// corpus is the input set of the layer probes, drawn from the workload's
// own instances so each probe measures a layer on the inputs the workload
// feeds it. Endpoints and shapes the workload does not send are built from
// its instances too (its trees as sessions, its bodies as batches).
type corpus struct {
	w        *workload
	trees    []hap.Problem // tree instances at their deadlines
	general  []hap.Problem // non-tree instances when the workload has them, else trees
	anytime  []hap.Problem // instances the workload sends to the anytime ladder, else general
	solve    [][]byte      // JSON /v1/solve bodies
	bin      [][]byte      // HSB1 /v1/solve bodies
	batch    [][]byte      // /v1/solve-batch bodies
	admits   []admitInst
	sessions []*sessionPlan
	cached   bool // the workload's traffic is answered from caches
}

const corpusCap = 32

func problemOf(s *solveInst) hap.Problem {
	tab := s.tab()
	mk, err := hap.MinMakespan(s.graph, tab)
	if err != nil {
		panic(err)
	}
	return hap.Problem{Graph: s.graph, Table: tab, Deadline: mk + s.slack}
}

// binOf encodes an inline-table HSB1 body for p.
func binOf(p hap.Problem) []byte {
	b, err := server.EncodeBinSolveRequest(&server.SolveRequest{
		Graph: mustJSON(p.Graph), Table: &server.TablePayload{Time: p.Table.Time, Cost: p.Table.Cost}, Deadline: p.Deadline,
	})
	if err != nil {
		panic(err)
	}
	return b
}

func batchOf(a, b []byte) []byte {
	return append(append(append(append([]byte(`{"entries":[`), a...), ','), b...), "]}"...)
}

func newCorpus(w *workload) *corpus {
	c := &corpus{w: w, cached: w.cluster}
	rng := rand.New(rand.NewSource(w.seed))
	switch {
	case w.cluster: // hot-mix: the working set and the scheduled bodies
		for i := 0; i < hotWorkingSet && len(c.trees) < corpusCap; i += hotWorkingSet / corpusCap {
			c.trees = append(c.trees, problemOf(w.solves[i]))
		}
		for i := range w.open {
			r := &w.open[i]
			switch {
			case r.kind == kSolve && r.bin && len(c.bin) < corpusCap:
				c.bin = append(c.bin, r.head)
			case r.kind == kSolve && !r.bin && len(c.solve) < corpusCap:
				c.solve = append(c.solve, r.head)
			case r.kind == kBatch && len(c.batch) < corpusCap:
				c.batch = append(c.batch, r.head)
			}
		}
		for _, a := range w.admits {
			c.admits = append(c.admits, *a)
		}
	case len(w.sessions) > 0: // session-patch: the sessions' initial instances
		for _, sp := range w.sessions {
			p := hap.Problem{Graph: sp.graph, Table: sp.table, Deadline: sp.deadline}
			c.trees = append(c.trees, p)
			c.solve = append(c.solve, sp.put)
			c.bin = append(c.bin, binOf(p))
		}
		c.sessions = w.sessions
		for i := 0; i < 4; i++ {
			c.admits = append(c.admits, genAdmit(rng))
		}
	default: // cold-solve: fresh requests from a client index the run does not use
		next := w.stream(w.clients)
		for len(c.solve) < corpusCap || len(c.anytime) < 6 {
			r := next()
			if r.kind == kAdmit {
				if len(c.admits) < 8 {
					c.admits = append(c.admits, *r.admit)
				}
				continue
			}
			s := r.insts[0]
			if s.algo == "anytime" {
				if len(c.anytime) < 6 {
					c.anytime = append(c.anytime, problemOf(s))
				}
				continue
			}
			if len(c.solve) == corpusCap {
				continue
			}
			p := problemOf(s)
			if s.tree {
				c.trees = append(c.trees, p)
			} else {
				c.general = append(c.general, p)
			}
			c.solve = append(c.solve, r.body())
			c.bin = append(c.bin, binOf(p))
		}
	}
	if len(c.general) == 0 {
		c.general = c.trees
	}
	if len(c.anytime) == 0 {
		c.anytime = c.general
	}
	if len(c.batch) == 0 {
		for i := 0; i+1 < len(c.solve); i += 2 {
			c.batch = append(c.batch, batchOf(c.solve[i], c.solve[i+1]))
		}
	}
	if c.sessions == nil {
		for i, p := range c.trees[:min(4, len(c.trees))] {
			c.sessions = append(c.sessions, newSessionPlan("probe"+strconv.Itoa(i), p.Graph, p.Table, p.Deadline, rng))
		}
	}
	// The probes replay each session's first probePatches patches from its
	// initial instance; draw any the run did not.
	for _, sp := range c.sessions {
		for len(sp.patches) < probePatches {
			sp.nextPatch()
		}
	}
	return c
}

// probePatches is how many of a session's patches the probes replay.
const probePatches = 64

// routerProbe is the traffic a direct-to-node workload sends through the
// router to measure the hop: the solves it already sent (sent), read-only
// GETs for sessions.
func routerProbe(w *workload, sent []outcome) []request {
	var out []request
	if len(w.sessions) > 0 {
		for i := 0; len(out) < 200; i++ {
			out = append(out, request{kind: kGet, method: "GET", path: "/v1/instances/" + w.sessions[i%len(w.sessions)].id})
		}
		return out
	}
	for i := range sent {
		if r := sent[i].req; r.kind == kSolve && len(out) < 200 {
			out = append(out, *r)
		}
	}
	return out
}

// endpointItems lists the probe requests of one endpoint.
func (c *corpus) endpointItems(e kind) []request {
	var out []request
	switch e {
	case kSolve:
		for i := range c.solve {
			out = append(out, request{kind: kSolve, method: "POST", path: "/v1/solve", head: c.solve[i]})
			// Off hot-mix a binary body is its JSON twin's instance, which
			// would answer from the cache the JSON body just filled.
			if c.cached && i < len(c.bin) {
				out = append(out, request{kind: kSolve, method: "POST", path: "/v1/solve", head: c.bin[i], bin: true})
			}
		}
	case kBatch:
		for _, b := range c.batch {
			out = append(out, request{kind: kBatch, method: "POST", path: "/v1/solve-batch", head: b})
		}
	case kAdmit:
		for _, a := range c.admits {
			out = append(out, request{kind: kAdmit, method: "POST", path: "/v1/admit", head: admitBody(&a)})
		}
	case kPatch, kGet:
		for k := 0; k < 16; k++ {
			for _, sp := range c.sessions {
				path := "/v1/instances/probe-" + sp.id
				if e == kPatch {
					out = append(out, request{kind: kPatch, method: "PATCH", path: path, head: sp.patches[k].body})
				} else {
					out = append(out, request{kind: kGet, method: "GET", path: path})
				}
			}
		}
	}
	return out
}

func (c *corpus) putSessions(do func(r *request) (int, []byte)) error {
	for _, sp := range c.sessions {
		r := request{kind: kPut, method: "PUT", path: "/v1/instances/probe-" + sp.id, head: sp.put}
		if st, body := do(&r); st/100 != 2 {
			return fmt.Errorf("probe session PUT: status %d %.200s", st, body)
		}
	}
	return nil
}

// handlerProbe sends, traced, the corpus requests of every endpoint the
// workload's own traffic did not exercise, so every endpoint has node
// handler spans.
func (c *corpus) handlerProbe(ctx context.Context, cl *http.Client, node string, rec *recorder, have map[string]samples) error {
	rec.mu.Lock()
	mark := len(rec.spans)
	rec.mu.Unlock()
	do := func(r *request) (int, []byte) {
		st, body, err := send(ctx, cl, node, r, 0)
		if err != nil {
			return 0, []byte(err.Error())
		}
		return st, body
	}
	if have["patch"] == nil || have["get"] == nil {
		if err := c.putSessions(do); err != nil {
			return err
		}
	}
	for e := kind(0); e < numKinds; e++ {
		if have[kindNames[e]] != nil {
			continue
		}
		items := c.endpointItems(e)
		for i := range items {
			id := int64(2)<<40 + int64(e)<<32 + int64(i)
			t0 := time.Now()
			st, body, err := send(ctx, cl, node, &items[i], id)
			if err != nil || st/100 != 2 {
				return fmt.Errorf("handler probe %s: status %d %v %.200s", kindNames[e], st, err, body)
			}
			rec.add("client."+kindNames[e], id, 0, t0, time.Now())
		}
	}
	rec.mu.Lock()
	tail := &recorder{spans: rec.spans[mark:]}
	rec.mu.Unlock()
	for e, s := range handlerTimes(tail) {
		if have[e] == nil {
			have[e] = s
		}
	}
	return nil
}

// dispatchProbe serves each endpoint's corpus requests through a fresh
// in-process server's Handler().ServeHTTP into a recorder — no socket —
// timing each call and counting the allocations per request. On a cached
// workload every request is dispatched once untimed first, so the timed
// pass takes the cache path the workload takes.
func (c *corpus) dispatchProbe(rec *recorder, put func(name, unit string, v float64)) error {
	s := server.New(server.Config{CacheSize: c.w.cache})
	defer s.Close()
	h := s.Handler()
	do := func(r *request) (int, []byte) {
		q := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body()))
		if r.bin {
			q.Header.Set("Content-Type", server.BinContentType)
			q.Header.Set("Accept", server.BinContentType)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, q)
		return rw.Code, rw.Body.Bytes()
	}
	if err := c.putSessions(do); err != nil {
		return err
	}
	var ms runtime.MemStats
	for e := kind(0); e < numKinds; e++ {
		items := c.endpointItems(e)
		if c.cached && e != kPatch || e == kGet {
			for i := range items {
				do(&items[i])
			}
		}
		var ts samples
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := range items {
			var st int
			var body []byte
			ts = append(ts, rec.time("dispatch."+kindNames[e], func() { st, body = do(&items[i]) }))
			if st/100 != 2 {
				return fmt.Errorf("dispatch %s: status %d %.200s", kindNames[e], st, body)
			}
		}
		runtime.ReadMemStats(&ms)
		put("server.dispatch_us."+kindNames[e], "us", us(ts.quantile(0.5)))
		put("server.allocs_per_req."+kindNames[e], "count", float64(ms.Mallocs-before)/float64(max(1, len(items))))
	}
	return nil
}

// allocs runs f and returns the heap allocations it made.
func allocs(f func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - before)
}

func upTo[T any](v []T, n int) []T { return v[:min(n, len(v))] }

// layerProbes times direct calls into each layer's public functions on the
// corpus.
func (c *corpus) layerProbes(rec *recorder, put func(name, unit string, v float64)) error {
	// canon: digests of the workload's instances.
	var keys, keysEnc, decode samples
	for _, p := range upTo(append(append([]hap.Problem(nil), c.trees...), c.general...), corpusCap) {
		keys = append(keys, rec.time("canon.Keys", func() { canon.Keys(p.Graph, p.Table, p.Deadline, "auto") }))
		inst := canon.AppendInstance(nil, p.Graph, p.Table)
		keysEnc = append(keysEnc, rec.time("canon.KeysEncoded", func() { canon.KeysEncoded(inst, p.Deadline, "auto") }))
		var derr error
		decode = append(decode, rec.time("canon.DecodeInstance", func() { _, _, _, _, derr = canon.DecodeInstance(inst) }))
		if derr != nil {
			return fmt.Errorf("canon.DecodeInstance: %w", derr)
		}
	}
	put("canon.keys_us", "us", us(keys.quantile(0.5)))
	put("canon.keys_encoded_us", "us", us(keysEnc.quantile(0.5)))
	put("canon.decode_instance_us", "us", us(decode.quantile(0.5)))

	// server.ResolveInstance and the router's affinity key on the bodies.
	var resolve, keyJSON, keyBin, route samples
	ring, err := cluster.NewRing(2, 128)
	if err != nil {
		return err
	}
	full := func(int) int { return 256 }
	buf := make([]int, 0, 2)
	for _, b := range c.solve {
		var req server.SolveRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return fmt.Errorf("corpus body: %w", err)
		}
		var rerr error
		resolve = append(resolve, rec.time("server.ResolveInstance", func() { _, _, rerr = server.ResolveInstance(&req) }))
		var key string
		keyJSON = append(keyJSON, rec.time("cluster.AffinityKey.json", func() { key, rerr = cluster.AffinityKey(b, false, false) }))
		if rerr != nil {
			return fmt.Errorf("affinity key: %w", rerr)
		}
		const calls = 1000
		d := rec.time("cluster.Ring.Route", func() {
			for i := 0; i < calls; i++ {
				ring.Route(key, full, buf[:0])
			}
		})
		route = append(route, d/calls)
	}
	for _, b := range c.bin {
		var kerr error
		keyBin = append(keyBin, rec.time("cluster.AffinityKey.bin", func() { _, kerr = cluster.AffinityKey(b, true, false) }))
		if kerr != nil {
			return fmt.Errorf("affinity key (bin): %w", kerr)
		}
	}
	put("server.resolve_instance_us", "us", us(resolve.quantile(0.5)))
	put("cluster.affinity_key_us.json", "us", us(keyJSON.quantile(0.5)))
	put("cluster.affinity_key_us.bin", "us", us(keyBin.quantile(0.5)))
	put("cluster.route_ns", "ns", float64(route.quantile(0.5)))

	// hap: Tree_Assign, the frontier solver, the anytime ladder and the
	// incremental solver.
	var tree, build, solveAt samples
	var treeAllocs []float64
	for _, p := range upTo(c.trees, 8) {
		var terr error
		treeAllocs = append(treeAllocs, allocs(func() {
			tree = append(tree, rec.time("hap.TreeAssign", func() { _, terr = hap.TreeAssign(p) }))
		}))
		if terr != nil {
			return fmt.Errorf("hap.TreeAssign: %w", terr)
		}
		wide := p
		wmax := make([]int, p.Graph.N())
		for v := range wmax {
			wmax[v] = p.Table.MaxTime(v)
		}
		if hi, _, err := p.Graph.LongestPath(wmax); err == nil && hi > wide.Deadline {
			wide.Deadline = hi
		}
		var fs *hap.FrontierSolver
		build = append(build, rec.time("hap.NewFrontierSolver", func() { fs, terr = hap.NewFrontierSolver(wide) }))
		if terr != nil {
			return fmt.Errorf("hap.NewFrontierSolver: %w", terr)
		}
		lo, _ := hap.MinMakespan(p.Graph, p.Table)
		for L := lo; L <= wide.Deadline; L += max(1, (wide.Deadline-lo)/8) {
			solveAt = append(solveAt, rec.time("hap.FrontierSolver.SolveAt", func() { _, terr = fs.SolveAt(L) }))
			if terr != nil {
				return fmt.Errorf("SolveAt: %w", terr)
			}
		}
	}
	put("hap.tree_assign_ms", "ms", ms(tree.quantile(0.5)))
	put("hap.tree_allocs", "count", median(treeAllocs))
	put("hap.frontier_build_ms", "ms", ms(build.quantile(0.5)))
	put("hap.frontier_solveat_us", "us", us(solveAt.quantile(0.5)))

	var anyT samples
	exact := 0
	for _, p := range upTo(c.anytime, 6) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		var res hap.AnytimeResult
		var aerr error
		anyT = append(anyT, rec.time("hap.SolveAnytime", func() { res, aerr = hap.SolveAnytime(ctx, p, hap.AnytimeOptions{}) }))
		cancel()
		if aerr != nil {
			return fmt.Errorf("hap.SolveAnytime: %w", aerr)
		}
		if res.Quality == hap.QualityExact {
			exact++
		}
	}
	put("hap.anytime_ms", "ms", ms(anyT.quantile(0.5)))
	put("hap.anytime_exact_ratio", "ratio", float64(exact)/float64(max(1, len(anyT))))

	var incr samples
	recomputed, patches := 0, 0
	for _, sp := range upTo(c.sessions, 2) {
		inc, err := hap.NewIncrementalSolver(hap.Problem{Graph: sp.graph, Table: sp.table, Deadline: sp.deadline})
		if err != nil {
			return fmt.Errorf("hap.NewIncrementalSolver: %w", err)
		}
		for _, pp := range sp.patches[:probePatches] {
			var ierr error
			incr = append(incr, rec.time("hap.IncrementalSolver.patch", func() {
				for _, op := range pp.ops {
					if ierr == nil {
						ierr = applyIncremental(inc, op)
					}
				}
				if ierr == nil {
					_, ierr = inc.Solve()
				}
			}))
			if ierr != nil {
				inc.Close()
				return fmt.Errorf("incremental patch: %w", ierr)
			}
			recomputed += inc.Recomputed()
			patches++
		}
		inc.Close()
	}
	put("hap.incr_patch_us", "us", us(incr.quantile(0.5)))
	put("hap.incr_recomputed", "count", float64(recomputed)/float64(max(1, patches)))

	// cptree: critical-path tree expansion of the workload's graphs.
	var expand samples
	var expRatio []float64
	for _, p := range upTo(c.general, 16) {
		var t *cptree.Tree
		var eerr error
		expand = append(expand, rec.time("cptree.ExpandBoth", func() { t, eerr = cptree.ExpandBoth(p.Graph) }))
		if eerr != nil {
			return fmt.Errorf("cptree.ExpandBoth: %w", eerr)
		}
		expRatio = append(expRatio, float64(t.Graph.N())/float64(p.Graph.N()))
	}
	put("cptree.expand_us", "us", us(expand.quantile(0.5)))
	put("cptree.expand_ratio", "ratio", median(expRatio))

	// sched: Min_R_Scheduling on the assignments the server's algorithm
	// returns for these instances.
	var minr samples
	for _, p := range upTo(c.general, 8) {
		sol, err := hap.Solve(p, hap.AlgoAuto)
		if err != nil {
			return fmt.Errorf("hap.Solve: %w", err)
		}
		var serr error
		minr = append(minr, rec.time("sched.MinRSchedule", func() { _, _, serr = sched.MinRSchedule(p.Graph, p.Table, sol.Assign, p.Deadline) }))
		if serr != nil {
			return fmt.Errorf("sched.MinRSchedule: %w", serr)
		}
	}
	put("sched.minr_us", "us", us(minr.quantile(0.5)))

	// rta: cheapest-fit search and a fixed-configuration admission.
	var cheapest, admit samples
	var admitAllocs []float64
	steps := 0
	for _, a := range upTo(c.admits, 4) {
		set := taskSet(&a)
		so := rta.SearchOptions{MaxPerType: a.maxPerType}
		var sr rta.SearchResult
		var rerr error
		cheapest = append(cheapest, rec.time("rta.CheapestConfig", func() { sr, rerr = rta.CheapestConfig(context.Background(), set, so, rta.Options{}) }))
		if rerr != nil {
			return fmt.Errorf("rta.CheapestConfig: %w", rerr)
		}
		steps += sr.Steps
		cfg := sr.Config
		if !sr.Found {
			cfg = make(rta.Config, set.K())
			for k := range cfg {
				cfg[k] = a.maxPerType
			}
		}
		admitAllocs = append(admitAllocs, allocs(func() {
			admit = append(admit, rec.time("rta.Admit", func() { _, rerr = rta.Admit(context.Background(), set, cfg, rta.Options{}) }))
		}))
		if rerr != nil {
			return fmt.Errorf("rta.Admit: %w", rerr)
		}
	}
	put("rta.cheapest_ms", "ms", ms(cheapest.quantile(0.5)))
	put("rta.search_steps", "count", float64(steps)/float64(max(1, len(cheapest))))
	put("rta.admit_ms", "ms", ms(admit.quantile(0.5)))
	put("rta.admit_allocs", "count", median(admitAllocs))
	return nil
}

// applyIncremental applies one session op to an incremental solver.
func applyIncremental(inc *hap.IncrementalSolver, op server.PatchOp) error {
	switch op.Op {
	case "set_row":
		return inc.SetRow(*op.Node, op.Time, op.Cost)
	case "set_deadline":
		return inc.SetDeadline(op.Deadline)
	case "add_edge":
		return inc.AddEdge(dfg.NodeID(*op.From), dfg.NodeID(*op.To), 0)
	case "remove_edge":
		return inc.RemoveEdge(dfg.NodeID(*op.From), dfg.NodeID(*op.To), 0)
	}
	return fmt.Errorf("unknown op %q", op.Op)
}
