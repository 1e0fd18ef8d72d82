package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hetsynth/internal/canon"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
)

// sessMirror is the test's client-side replica of a session's state; the
// differential soak patches the server and the mirror in lockstep and
// cross-checks solutions and digests after every step.
type sessMirror struct {
	n        int
	k        int
	edges    []dfg.Edge
	time     [][]int
	cost     [][]int64
	deadline int
}

func (m *sessMirror) graph(t *testing.T) *dfg.Graph {
	t.Helper()
	g := dfg.New()
	g.Grow(m.n, len(m.edges))
	for v := 0; v < m.n; v++ {
		g.MustAddNode(fmt.Sprintf("n%d", v), "op")
	}
	for _, e := range m.edges {
		if err := g.AddEdge(e.From, e.To, e.Delays); err != nil {
			t.Fatalf("mirror graph edge (%d,%d): %v", e.From, e.To, err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("mirror graph invalid: %v", err)
	}
	return g
}

func (m *sessMirror) table() *fu.Table {
	tab := fu.NewTable(m.n, m.k)
	for v := 0; v < m.n; v++ {
		tab.MustSet(v, m.time[v], m.cost[v])
	}
	return tab
}

// putBody renders the mirror as a PUT /v1/instances body.
func (m *sessMirror) putBody(t *testing.T) string {
	t.Helper()
	type jnode struct {
		Name string `json:"name"`
		Op   string `json:"op"`
	}
	type jedge struct {
		From   string `json:"from"`
		To     string `json:"to"`
		Delays int    `json:"delays"`
	}
	nodes := make([]jnode, m.n)
	for v := 0; v < m.n; v++ {
		nodes[v] = jnode{Name: fmt.Sprintf("n%d", v), Op: "op"}
	}
	edges := make([]jedge, len(m.edges))
	for i, e := range m.edges {
		edges[i] = jedge{From: fmt.Sprintf("n%d", e.From), To: fmt.Sprintf("n%d", e.To), Delays: e.Delays}
	}
	body, err := json.Marshal(map[string]any{
		"graph":    map[string]any{"nodes": nodes, "edges": edges},
		"table":    map[string]any{"time": m.time, "cost": m.cost},
		"deadline": m.deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// oracle re-solves the mirror from scratch the way the session's own solve
// path would: the optimal tree DP on forest shapes (the incremental solver
// is bit-identical to TreeAssign), the auto dispatch otherwise (which is
// deterministic — repeat — on general DAGs).
func (m *sessMirror) oracle(t *testing.T) (hap.Solution, bool) {
	t.Helper()
	g := m.graph(t)
	prob := hap.Problem{Graph: g, Table: m.table(), Deadline: m.deadline}
	var sol hap.Solution
	var err error
	if g.IsOutForest() || g.IsInForest() {
		sol, err = hap.TreeAssign(prob)
	} else {
		sol, err = hap.SolveCtx(context.Background(), prob, hap.AlgoAuto)
	}
	switch {
	case err == nil:
		return sol, false
	case isInfeasible(err):
		return hap.Solution{}, true
	default:
		t.Fatalf("oracle solve: %v", err)
		return hap.Solution{}, false
	}
}

func randMirror(rng *rand.Rand) *sessMirror {
	m := &sessMirror{n: 4 + rng.Intn(9), k: 2 + rng.Intn(3)}
	for v := 1; v < m.n; v++ {
		if rng.Intn(4) > 0 {
			m.edges = append(m.edges, dfg.Edge{From: dfg.NodeID(rng.Intn(v)), To: dfg.NodeID(v), Delays: rng.Intn(2)})
		}
	}
	m.time = make([][]int, m.n)
	m.cost = make([][]int64, m.n)
	for v := 0; v < m.n; v++ {
		m.time[v] = make([]int, m.k)
		m.cost[v] = make([]int64, m.k)
		for j := 0; j < m.k; j++ {
			m.time[v][j] = 1 + rng.Intn(12)
			m.cost[v][j] = int64(rng.Intn(80))
		}
	}
	m.deadline = 10 + rng.Intn(60)
	return m
}

// checkView asserts a committed session view against the mirror: the
// solution must be bit-identical to the from-scratch oracle, and both
// digests must match the whole-instance canonical digests of the mirror.
func (m *sessMirror) checkView(t *testing.T, view map[string]any, step string) {
	t.Helper()
	wantSol, wantInf := m.oracle(t)
	gotInf, _ := view["infeasible"].(bool)
	if gotInf != wantInf {
		t.Fatalf("%s: infeasible = %v, oracle says %v (view %v)", step, gotInf, wantInf, view)
	}
	if !wantInf {
		res, ok := view["result"].(map[string]any)
		if !ok {
			t.Fatalf("%s: feasible view missing result: %v", step, view)
		}
		if int64(res["cost"].(float64)) != wantSol.Cost {
			t.Fatalf("%s: cost %v, oracle %d", step, res["cost"], wantSol.Cost)
		}
		assign := res["assignment"].([]any)
		if len(assign) != len(wantSol.Assign) {
			t.Fatalf("%s: assignment length %d, oracle %d", step, len(assign), len(wantSol.Assign))
		}
		for i, a := range assign {
			if int(a.(float64)) != int(wantSol.Assign[i]) {
				t.Fatalf("%s: assignment[%d] = %v, oracle %d", step, i, a, wantSol.Assign[i])
			}
		}
	}
	g := m.graph(t)
	tab := m.table()
	wantReq, wantInst := canon.Keys(g, tab, m.deadline, "auto")
	if view["digest"] != wantInst {
		t.Fatalf("%s: digest %v != whole-instance canon digest %s", step, view["digest"], wantInst)
	}
	if view["request_digest"] != wantReq {
		t.Fatalf("%s: request_digest %v != whole-instance canon key %s", step, view["request_digest"], wantReq)
	}
}

// randomPatch mutates the mirror and returns the equivalent PATCH ops. Every
// generated op is valid against the current mirror, so the server must
// accept the patch.
func (m *sessMirror) randomPatch(rng *rand.Rand) []map[string]any {
	nops := 1 + rng.Intn(3)
	var ops []map[string]any
	for len(ops) < nops {
		switch rng.Intn(5) {
		case 0, 1: // row edit (most common: the paper's module-selection knob)
			v := rng.Intn(m.n)
			times := make([]int, m.k)
			costs := make([]int64, m.k)
			for j := 0; j < m.k; j++ {
				times[j] = 1 + rng.Intn(12)
				costs[j] = int64(rng.Intn(80))
			}
			m.time[v] = times
			m.cost[v] = costs
			ops = append(ops, map[string]any{"op": "set_row", "node": v, "time": times, "cost": costs})
		case 2: // edge insertion; u<v zero-delay keeps the DAG valid, delayed edges always are
			u, v := rng.Intn(m.n), rng.Intn(m.n)
			if u == v {
				continue
			}
			delays := 0
			if u > v {
				if rng.Intn(2) == 0 {
					u, v = v, u
				} else {
					delays = 1 + rng.Intn(2)
				}
			}
			m.edges = append(m.edges, dfg.Edge{From: dfg.NodeID(u), To: dfg.NodeID(v), Delays: delays})
			ops = append(ops, map[string]any{"op": "add_edge", "from": u, "to": v, "delays": delays})
		case 3: // edge removal; mirror replicates the server's first-match rule
			if len(m.edges) == 0 {
				continue
			}
			e := m.edges[rng.Intn(len(m.edges))]
			for i, x := range m.edges {
				if x.From == e.From && x.To == e.To {
					m.edges = append(m.edges[:i:i], m.edges[i+1:]...)
					break
				}
			}
			ops = append(ops, map[string]any{"op": "remove_edge", "from": int(e.From), "to": int(e.To)})
		default: // deadline retarget
			d := 1 + rng.Intn(80)
			m.deadline = d
			ops = append(ops, map[string]any{"op": "set_deadline", "deadline": d})
		}
	}
	return ops
}

// TestSessionLifecycle covers the basic PUT/GET/PATCH/DELETE contract.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	m := randMirror(rng)

	code, view := postJSON(t, ts, "PUT", "/v1/instances/life", m.putBody(t))
	if code != 201 {
		t.Fatalf("PUT: status %d: %v", code, view)
	}
	if view["gen"].(float64) != 1 {
		t.Fatalf("PUT gen = %v, want 1", view["gen"])
	}
	m.checkView(t, view, "put")

	code, got := postJSON(t, ts, "GET", "/v1/instances/life", "")
	if code != 200 || got["digest"] != view["digest"] {
		t.Fatalf("GET: status %d digest %v, want 200/%v", code, got["digest"], view["digest"])
	}

	// Empty patch: a no-op re-solve bumps the generation but changes nothing.
	code, view = postJSON(t, ts, "PATCH", "/v1/instances/life", `{"ops":[]}`)
	if code != 200 || view["gen"].(float64) != 2 {
		t.Fatalf("empty PATCH: status %d gen %v, want 200/2", code, view["gen"])
	}
	m.checkView(t, view, "empty patch")

	// Re-PUT replaces: 200, generation resets.
	code, view = postJSON(t, ts, "PUT", "/v1/instances/life", m.putBody(t))
	if code != 200 || view["gen"].(float64) != 1 {
		t.Fatalf("re-PUT: status %d gen %v, want 200/1", code, view["gen"])
	}

	code, _ = postJSON(t, ts, "DELETE", "/v1/instances/life", "")
	if code != 200 {
		t.Fatalf("DELETE: status %d", code)
	}
	if code, _ = postJSON(t, ts, "GET", "/v1/instances/life", ""); code != 404 {
		t.Fatalf("GET after DELETE: status %d, want 404", code)
	}
	if code, _ = postJSON(t, ts, "PATCH", "/v1/instances/life", `{"ops":[]}`); code != 404 {
		t.Fatalf("PATCH after DELETE: status %d, want 404", code)
	}
}

// TestSessionDifferentialSoak drives 200+ randomized patch steps across many
// sessions, asserting after every step that the session's solution is
// bit-identical to a from-scratch solve of the equivalent whole instance and
// that its digests equal the whole-instance canonical digests. This is the
// tentpole's headline invariant: a patched session is indistinguishable from
// a fresh instance.
func TestSessionDifferentialSoak(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(23))
	const trials, steps = 25, 10 // 250 patch steps
	sawIncremental := false
	for trial := 0; trial < trials; trial++ {
		m := randMirror(rng)
		id := fmt.Sprintf("soak-%d", trial)
		code, view := postJSON(t, ts, "PUT", "/v1/instances/"+id, m.putBody(t))
		if code != 201 {
			t.Fatalf("trial %d PUT: status %d: %v", trial, code, view)
		}
		m.checkView(t, view, fmt.Sprintf("trial %d put", trial))
		for step := 0; step < steps; step++ {
			ops := m.randomPatch(rng)
			body, err := json.Marshal(map[string]any{"ops": ops})
			if err != nil {
				t.Fatal(err)
			}
			code, view := postJSON(t, ts, "PATCH", "/v1/instances/"+id, string(body))
			if code != 200 {
				t.Fatalf("trial %d step %d: PATCH status %d: %v (ops %v)", trial, step, code, view, ops)
			}
			m.checkView(t, view, fmt.Sprintf("trial %d step %d", trial, step))
			if view["source"] == "incremental" {
				sawIncremental = true
				if view["tree"] != true {
					t.Fatalf("trial %d step %d: incremental source on non-tree view", trial, step)
				}
			}
		}
		if code, _ := postJSON(t, ts, "DELETE", "/v1/instances/"+id, ""); code != 200 {
			t.Fatalf("trial %d DELETE: status %d", trial, code)
		}
	}
	if !sawIncremental {
		t.Fatal("soak never exercised the incremental solve path")
	}
}

// TestSessionDirtyPathRecompute asserts the O(dirty path) contract at the
// HTTP layer: on a deep chain, a single-row patch of the leaf re-solves only
// the nodes on its root path, not the whole instance.
func TestSessionDirtyPathRecompute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 64
	m := &sessMirror{n: n, k: 2, deadline: 3 * n}
	for v := 1; v < n; v++ {
		m.edges = append(m.edges, dfg.Edge{From: dfg.NodeID(v - 1), To: dfg.NodeID(v)})
	}
	m.time = make([][]int, n)
	m.cost = make([][]int64, n)
	for v := 0; v < n; v++ {
		m.time[v] = []int{1, 2}
		m.cost[v] = []int64{5, 1}
	}
	code, view := postJSON(t, ts, "PUT", "/v1/instances/chain", m.putBody(t))
	if code != 201 {
		t.Fatalf("PUT: status %d: %v", code, view)
	}
	if view["source"] != "incremental" || int(view["recomputed"].(float64)) != n {
		t.Fatalf("PUT source/recomputed = %v/%v, want incremental/%d", view["source"], view["recomputed"], n)
	}
	// In the solver's out-forest orientation the chain's node 0 is the
	// shallow end: its dirty path is itself alone, so the patch must
	// recompute exactly one node out of 64.
	m.time[0] = []int{2, 3}
	m.cost[0] = []int64{7, 2}
	body := `{"ops":[{"op":"set_row","node":0,"time":[2,3],"cost":[7,2]}]}`
	code, view = postJSON(t, ts, "PATCH", "/v1/instances/chain", body)
	if code != 200 {
		t.Fatalf("PATCH: status %d: %v", code, view)
	}
	if rec := int(view["recomputed"].(float64)); rec != 1 {
		t.Fatalf("single-row patch recomputed %d of %d nodes, want 1 (the dirty path)", rec, n)
	}
	m.checkView(t, view, "chain patch")
}

// TestSessionRejectionLeavesStateUntouched asserts the 400 contract: a
// rejected patch changes nothing — same generation, same digest, same
// re-solve — even when valid ops precede the invalid one in the batch.
func TestSessionRejectionLeavesStateUntouched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(99))
	m := randMirror(rng)
	code, view := postJSON(t, ts, "PUT", "/v1/instances/rej", m.putBody(t))
	if code != 201 {
		t.Fatalf("PUT: status %d: %v", code, view)
	}
	gen, digest := view["gen"], view["digest"]

	bad := []string{
		fmt.Sprintf(`{"ops":[{"op":"set_row","node":%d,"time":[1,1],"cost":[1,1]}]}`, m.n+3),
		`{"ops":[{"op":"set_row","node":0,"time":[-1],"cost":[0]}]}`,
		fmt.Sprintf(`{"ops":[{"op":"add_edge","from":0,"to":%d}]}`, m.n+1),
		`{"ops":[{"op":"add_edge","from":1,"to":1,"delays":0}]}`,
		`{"ops":[{"op":"remove_edge","from":0,"to":0}]}`,
		`{"ops":[{"op":"set_deadline","deadline":0}]}`,
		`{"ops":[{"op":"warp_core_breach"}]}`,
		// A valid row edit followed by an invalid op must also roll back whole.
		fmt.Sprintf(`{"ops":[{"op":"set_row","node":0,"time":[%s],"cost":[%s]},{"op":"set_deadline","deadline":-4}]}`,
			strings.Repeat("1,", m.k-1)+"1", strings.Repeat("1,", m.k-1)+"1"),
		// Cycle-creating zero-delay edge pair.
		`{"ops":[{"op":"add_edge","from":0,"to":1,"delays":0},{"op":"add_edge","from":1,"to":0,"delays":0}]}`,
	}
	for i, body := range bad {
		code, m2 := postJSON(t, ts, "PATCH", "/v1/instances/rej", body)
		if code != 400 {
			t.Fatalf("bad patch %d: status %d, want 400: %v", i, code, m2)
		}
	}
	code, got := postJSON(t, ts, "GET", "/v1/instances/rej", "")
	if code != 200 || got["gen"] != gen || got["digest"] != digest {
		t.Fatalf("state changed after rejections: gen %v→%v digest %v→%v", gen, got["gen"], digest, got["digest"])
	}
	// An empty patch still re-solves to the identical answer.
	code, view = postJSON(t, ts, "PATCH", "/v1/instances/rej", `{"ops":[]}`)
	if code != 200 {
		t.Fatalf("re-solve after rejections: status %d", code)
	}
	m.checkView(t, view, "post-rejection re-solve")
}

// TestSessionMetricsAndLimits covers the session counters, the LRU cap and
// id validation.
func TestSessionMetricsAndLimits(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionMax: 2})
	rng := rand.New(rand.NewSource(5))
	m := randMirror(rng)
	for _, id := range []string{"a", "b", "c"} {
		if code, v := postJSON(t, ts, "PUT", "/v1/instances/"+id, m.putBody(t)); code != 201 {
			t.Fatalf("PUT %s: status %d: %v", id, code, v)
		}
	}
	if code, _ := postJSON(t, ts, "GET", "/v1/instances/a", ""); code != 404 {
		t.Fatalf("oldest session survived the cap: status %d, want 404", code)
	}
	if code, _ := postJSON(t, ts, "PUT", "/v1/instances/bad%20id", m.putBody(t)); code != 400 {
		t.Fatalf("invalid id accepted: status %d", code)
	}
	if code, _ := postJSON(t, ts, "PATCH", "/v1/instances/b", `{"ops":[]}`); code != 200 {
		t.Fatal("patch on live session failed")
	}
	if code, _ := postJSON(t, ts, "PATCH", "/v1/instances/b", `{"ops":[{"op":"nope"}]}`); code != 400 {
		t.Fatal("invalid op accepted")
	}
	snap := s.Metrics()
	if snap.SessionsActive != 2 || snap.SessionsCreated != 3 || snap.SessionsEvicted != 1 {
		t.Fatalf("sessions active/created/evicted = %d/%d/%d, want 2/3/1",
			snap.SessionsActive, snap.SessionsCreated, snap.SessionsEvicted)
	}
	if snap.Patches != 1 || snap.PatchesRejected != 1 {
		t.Fatalf("patches/rejected = %d/%d, want 1/1", snap.Patches, snap.PatchesRejected)
	}
}

// TestSessionPatchEvictedMidSolve evicts a session while a PATCH is past
// its pre-solve eviction check: the eviction's teardown cancels the solve,
// but the client never hung up, so the answer is the eviction's 404 — not
// the 499 the cancellation alone would classify as.
func TestSessionPatchEvictedMidSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code, view := postJSON(t, ts, "PUT", "/v1/instances/gone", fuzzSessionBody); code != 201 {
		t.Fatalf("PUT: status %d: %v", code, view)
	}
	ss, ok := s.sessions.get("gone")
	if !ok {
		t.Fatal("session not stored")
	}
	evicted := make(chan struct{})
	s.preSolve = func(ctx context.Context) {
		// evictSession blocks on the session's operation lock, which this
		// PATCH holds until it answers, so it runs beside the handler.
		go func() {
			s.evictSession(ss, "deleted")
			close(evicted)
		}()
		<-ctx.Done()
	}
	code, body := postJSON(t, ts, "PATCH", "/v1/instances/gone", `{"ops":[]}`)
	<-evicted
	if code != 404 || body["error"] != "instance session evicted" {
		t.Fatalf("PATCH racing eviction: status %d %v, want 404 instance session evicted", code, body)
	}
}
