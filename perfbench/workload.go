package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/server"
)

// kind is the endpoint a request exercises; per-endpoint layer metrics are
// keyed by its name.
type kind uint8

const (
	kSolve kind = iota
	kBatch
	kAdmit
	kPatch
	kGet
	numKinds            // the timed endpoints end here
	kPut     = numKinds // session creation in set-up; never timed
)

var kindNames = [numKinds]string{"solve", "batch", "admit", "patch", "get"}

// request is one HTTP request of a workload. The body is head followed by
// tail: cold-solve shares one rendered graph among many requests (head) and
// varies only the table seed and deadline (tail), so fresh requests cost
// little to generate while every body is distinct. The request carries the
// instances its answer is certified against.
type request struct {
	kind   kind
	method string
	path   string
	head   []byte
	tail   []byte
	bin    bool
	insts  []*solveInst // a solve's instance, or a batch's one per entry
	admit  *admitInst
	sess   int // session index of a patch, get or put
	gen    int // session generation a patch produces or a get reads
	due    time.Duration
}

func (r *request) bodyLen() int { return len(r.head) + len(r.tail) }

// body returns the whole body as one slice (tests and in-memory dispatch).
func (r *request) body() []byte {
	if len(r.tail) == 0 {
		return r.head
	}
	return append(append([]byte(nil), r.head...), r.tail...)
}

// solveInst is what a solve answer is certified against: the instance the
// request describes, materialized from the benchmark's own copy.
type solveInst struct {
	graph    *dfg.Graph
	table    *fu.Table // nil: derive from seed/types like the server does
	seed     int64
	types    int
	slack    int // deadline = MinMakespan + slack
	algo     string
	schedule bool
	tree     bool
}

// tab materializes the instance's table.
func (s *solveInst) tab() *fu.Table {
	if s.table != nil {
		return s.table
	}
	return fu.RandomTable(rand.New(rand.NewSource(s.seed)), s.graph.N(), s.types)
}

// admitInst is one admission request: the task specs and the search bound.
type admitInst struct {
	tasks      []benchdfg.TaskSpec
	maxPerType int
}

// workload is everything one run sends. The set-up requests and the
// open-loop schedule are generated before any timing starts; closed-loop
// clients draw their requests on demand from per-client generators, so no
// pool sized in advance caps the throughput a run can show.
type workload struct {
	name    string
	seed    int64
	cluster bool      // client → router → 2 nodes; otherwise client → 1 node
	rate    float64   // open-loop arrivals per second; 0 = closed loop only
	cache   int       // per-node -cache entries
	clients int       // closed-loop clients and connections
	warm    []request // sent in set-up, untimed, in order
	first   request   // the set-up's certified request
	open    []request // open-loop schedule (due offsets set)
	// stream returns the request generator of closed-loop client c. Request
	// i of client c depends only on (seed, c, i): the same seed gives
	// byte-identical bodies, and a client never runs out.
	stream func(c int) func() *request
	solves []*solveInst // hot-mix's working set
	admits []*admitInst // hot-mix's admission sets
	// sessions holds the stateful-session plans of session-patch.
	sessions []*sessionPlan
}

// Workload names, in BENCHMARK.json order.
var workloadNames = []string{"hot-mix", "cold-solve", "session-patch"}

// generate builds the named workload for seed. clients is the closed-loop
// client count (session-patch caps it at its session count); seconds sizes
// hot-mix's open-loop schedule.
func generate(name string, seed int64, clients int, seconds float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "hot-mix":
		w = genHotMix(rng, seed, seconds)
	case "cold-solve":
		w = genColdSolve(rng, seed)
	case "session-patch":
		w = genSessionPatch(rng, seed)
		clients = min(clients, sessCount)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.seed, w.clients = seed, clients
	return w, nil
}

// subRand returns the generator of sub-stream k of seed, independent of
// every other sub-stream and of how many there are (a splitmix64 step
// spreads the seeds apart).
func subRand(seed int64, k int) *rand.Rand {
	x := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(x ^ x>>31)))
}

// stratified returns n sizes spread evenly over [lo, hi], each jittered
// within its own stratum and shuffled: every seed sees the same size
// distribution, so throughput does not wander with the seed's luck.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	w := float64(hi-lo+1) / float64(n)
	for i := range out {
		out[i] = lo + int((float64(i)+rng.Float64())*w)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mustJSON marshals a value the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func intp(v int) *int { return &v }

// inlineRequest renders an inline graph+table solve body in either codec.
func inlineRequest(g *dfg.Graph, tab *fu.Table, slack int, bin bool) []byte {
	req := server.SolveRequest{
		Graph: mustJSON(g),
		Table: &server.TablePayload{Time: tab.Time, Cost: tab.Cost},
		Slack: intp(slack),
	}
	if !bin {
		return mustJSON(req)
	}
	b, err := server.EncodeBinSolveRequest(&req)
	if err != nil {
		panic(err)
	}
	return b
}

// ---- hot-mix ----

const (
	hotWorkingSet = 192 // distinct tree instances
	// hotCache is the per-node -cache. The static working set takes about
	// 440 result-cache entries (192 results and 192 frontiers, ~48 extra
	// batch results, 8 admits) and about 416 raw-replay entries (two codecs
	// per tree, batches, admits): it overflows one node at 320 and fits in
	// two, about 220 each.
	hotCache   = 320
	hotBatches = 24
	hotAdmits  = 8
	// hotRate is the open-loop arrival rate: under a fifth of the ~1.8k/s
	// the closed-loop phase measures on a 2-vCPU host, so the latency phase
	// shows the cached path unqueued.
	hotRate = 330
	// Small instances keep the cached path transport-bound: a large JSON
	// body makes the router's key extraction the whole cost.
	hotMinNodes, hotMaxNodes = 16, 128
	// hotFreshFloor is where fresh deadlines start: home slacks are below
	// 9 and batch entries below 13.
	hotFreshFloor = 16
)

// hotMix holds hot-mix's pre-rendered bodies, shared read-only by every
// generator.
type hotMix struct {
	w       *workload
	bodies  [][2][]byte // working-set solve bodies, JSON and HSB1
	batches []request
	admits  [][]byte
}

// gen returns a generator of hot-mix requests drawing from r. fresh gives
// the slack of each solve at a deadline not seen before. Per 20 requests:
// 14 solves alternating JSON and HSB1, 1 fresh deadline (frontier
// SolveAt), 2 small batches, 3 cached admits; instances, batches and admit
// sets are zipf-drawn by popularity rank.
func (h *hotMix) gen(r *rand.Rand, fresh func() int) func() *request {
	zipfInst := rand.NewZipf(r, 1.1, 1, hotWorkingSet-1)
	zipfBatch := rand.NewZipf(r, 1.1, 1, hotBatches-1)
	zipfAdmit := rand.NewZipf(r, 1.1, 1, hotAdmits-1)
	var block []int
	codec := 0
	return func() *request {
		if len(block) == 0 {
			block = []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 3, 3, 3}
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		k := block[0]
		block = block[1:]
		switch k {
		case 0:
			i := int(zipfInst.Uint64())
			codec ^= 1
			return &request{kind: kSolve, method: "POST", path: "/v1/solve", head: h.bodies[i][codec], bin: codec == 1, insts: h.w.solves[i : i+1]}
		case 1:
			base := h.w.solves[zipfInst.Uint64()]
			inst := &solveInst{graph: base.graph, table: base.table, slack: fresh(), algo: "auto", tree: true}
			return &request{kind: kSolve, method: "POST", path: "/v1/solve",
				head: inlineRequest(inst.graph, inst.table, inst.slack, false), insts: []*solveInst{inst}}
		case 2:
			b := h.batches[zipfBatch.Uint64()]
			return &b
		default:
			a := int(zipfAdmit.Uint64())
			return &request{kind: kAdmit, method: "POST", path: "/v1/admit", head: h.admits[a], admit: h.w.admits[a]}
		}
	}
}

// genHotMix: zipf-drawn cached traffic through the router. The open-loop
// schedule is generated here; closed-loop client c draws from its own
// generator with fresh slacks hotFreshFloor+n+c+k·clients past the
// schedule's n, so no two requests share a fresh deadline.
func genHotMix(rng *rand.Rand, seed int64, seconds float64) *workload {
	w := &workload{name: "hot-mix", cluster: true, rate: hotRate, cache: hotCache}
	h := &hotMix{w: w}
	// Popularity rank i gets size stratum (i*97) mod W, the same on every
	// seed: with zipf draws the few hottest instances carry much of the
	// traffic, so letting the seed pick their sizes would move every
	// latency figure with the seed.
	for i := 0; i < hotWorkingSet; i++ {
		n := hotMinNodes + int((float64(i*97%hotWorkingSet)+rng.Float64())*(hotMaxNodes-hotMinNodes+1)/hotWorkingSet)
		g := dfg.RandomTree(rng, n)
		tab := fu.RandomTable(rng, n, 3)
		slack := 1 + rng.Intn(8)
		w.solves = append(w.solves, &solveInst{graph: g, table: tab, slack: slack, algo: "auto", tree: true})
		h.bodies = append(h.bodies, [2][]byte{inlineRequest(g, tab, slack, false), inlineRequest(g, tab, slack, true)})
	}
	for b := 0; b < hotBatches; b++ {
		base := w.solves[b*hotWorkingSet/hotBatches]
		var req server.BatchRequest
		var insts []*solveInst
		for e, n := 0, 2+b%3; e < n; e++ {
			slack := base.slack + e
			insts = append(insts, &solveInst{graph: base.graph, table: base.table, slack: slack, algo: "auto", tree: true})
			req.Entries = append(req.Entries, server.SolveRequest{
				Graph: mustJSON(base.graph),
				Table: &server.TablePayload{Time: base.table.Time, Cost: base.table.Cost},
				Slack: intp(slack),
			})
		}
		h.batches = append(h.batches, request{kind: kBatch, method: "POST", path: "/v1/solve-batch", head: mustJSON(req), insts: insts})
	}
	for a := 0; a < hotAdmits; a++ {
		ad := genAdmit(rng)
		w.admits = append(w.admits, &ad)
		h.admits = append(h.admits, admitBody(&ad))
	}
	// Warm-up: every distinct body twice — the first answer fills the
	// result cache, the second stores the raw-replay entry.
	for pass := 0; pass < 2; pass++ {
		for i := range h.bodies {
			for c := 0; c < 2; c++ {
				w.warm = append(w.warm, request{kind: kSolve, method: "POST", path: "/v1/solve", head: h.bodies[i][c], bin: c == 1, insts: w.solves[i : i+1]})
			}
		}
		w.warm = append(w.warm, h.batches...)
		for a := range h.admits {
			w.warm = append(w.warm, request{kind: kAdmit, method: "POST", path: "/v1/admit", head: h.admits[a], admit: w.admits[a]})
		}
	}
	w.first = request{kind: kSolve, method: "POST", path: "/v1/solve", head: h.bodies[0][0], insts: w.solves[0:1]}
	openSec, _ := splitHot(seconds)
	n := int(hotRate*openSec*1.1) + 64
	slack := hotFreshFloor
	next := h.gen(rng, func() int { slack++; return slack })
	var due time.Duration
	for i := 0; i < n; i++ {
		r := next()
		due += time.Duration(rng.ExpFloat64() / hotRate * float64(time.Second))
		r.due = due
		w.open = append(w.open, *r)
	}
	w.stream = func(c int) func() *request {
		k := 0
		return h.gen(subRand(seed, c), func() int {
			k++
			return hotFreshFloor + n + c + k*w.clients
		})
	}
	return w
}

// splitHot divides hot-mix's measured seconds between the open-loop latency
// phase and the closed-loop throughput phase. The latency phase gets two
// thirds: at its low offered rate it collects samples far more slowly than
// the closed loop counts completions, and its tail is the figure that
// bursts of time stolen by other guests move most.
func splitHot(seconds float64) (open, closed float64) { return seconds * 2 / 3, seconds / 3 }

// hotRounds is how many times hot-mix alternates its latency and throughput
// phases.
const hotRounds = 6

// genAdmit draws a fresh periodic task set of 2–3 tree-shaped tasks at a
// total utilization of 0.5–1, split over the tasks by UUniFast: tree tasks
// take the frontier candidate path in internal/rta, so a fresh admission
// costs a few hundred microseconds to milliseconds instead of the anytime
// ladder's tens of milliseconds that would swamp every other request. Each
// task is drawn on its own until its benchmark is a tree, which costs far
// less than redrawing whole sets (the clients draw these while timed).
func genAdmit(rng *rand.Rand) admitInst {
	n := 2 + rng.Intn(2)
	sum := 0.5 + 0.5*rng.Float64()
	a := admitInst{maxPerType: 4}
	for i := 0; i < n; i++ {
		share := sum
		if i < n-1 {
			next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
			share, sum = sum-next, next
		}
		for {
			specs, err := benchdfg.TaskSet(benchdfg.TaskSetSpec{Tasks: 1, Utilization: share, Types: 3, Seed: rng.Int63()})
			if err != nil {
				panic(err)
			}
			if b, _ := benchdfg.Lookup(specs[0].Bench); b.Tree {
				a.tasks = append(a.tasks, specs[0])
				break
			}
		}
	}
	return a
}

func admitBody(a *admitInst) []byte {
	return mustJSON(map[string]any{"tasks": a.tasks, "search": map[string]any{"max_per_type": a.maxPerType}})
}

// ---- cold-solve ----

const (
	coldTreeShapes = 48
	coldDAGShapes  = 48
)

// coldShape is one rendered graph: the body up to its table seed.
type coldShape struct {
	g    *dfg.Graph
	head []byte
}

// coldGen returns a generator of cold-solve requests drawing from r. Every
// request carries a fresh table seed, so every digest is new and every
// request runs a solver. The mix, in blocks of 20 shuffled per block: 11
// random trees (K=3–5), 4 paper DFGs (elliptic, rls-laguerre, diffeq; K=3–8,
// Repeat heuristic, one in two with schedule:true), 2 random DAGs, 1 small
// random DAG through the anytime ladder, 2 fresh admission task sets.
func coldGen(r *rand.Rand, trees, dags, small []coldShape, paper []string, paperG []*dfg.Graph) func() *request {
	var block []int
	return func() *request {
		if len(block) == 0 {
			block = []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 4}
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		k := block[0]
		block = block[1:]
		seed := r.Int63()
		switch k {
		case 0:
			s := trees[r.Intn(len(trees))]
			types, slack := 3+r.Intn(3), 2+r.Intn(24)
			inst := &solveInst{graph: s.g, seed: seed, types: types, slack: slack, algo: "auto", tree: true}
			tail := fmt.Sprintf(`%d,"types":%d,"slack":%d}`, seed, types, slack)
			return &request{kind: kSolve, method: "POST", path: "/v1/solve", head: s.head, tail: []byte(tail), insts: []*solveInst{inst}}
		case 1:
			i := r.Intn(len(paper))
			types, slack, sched := 3+r.Intn(6), 2+r.Intn(12), r.Intn(2) == 0
			inst := &solveInst{graph: paperG[i], seed: seed, types: types, slack: slack, algo: "auto", schedule: sched}
			body := fmt.Sprintf(`{"bench":%q,"seed":%d,"types":%d,"slack":%d,"schedule":%v}`, paper[i], seed, types, slack, sched)
			return &request{kind: kSolve, method: "POST", path: "/v1/solve", head: []byte(body), insts: []*solveInst{inst}}
		case 2, 3:
			s, algo, types := dags[r.Intn(len(dags))], "auto", 3+r.Intn(6)
			if k == 3 {
				s, algo, types = small[r.Intn(len(small))], "anytime", 3
			}
			slack, sched := 2+r.Intn(10), r.Intn(2) == 0
			inst := &solveInst{graph: s.g, seed: seed, types: types, slack: slack, algo: algo, schedule: sched}
			tail := fmt.Sprintf(`%d,"types":%d,"slack":%d,"algorithm":%q,"schedule":%v}`, seed, types, slack, algo, sched)
			return &request{kind: kSolve, method: "POST", path: "/v1/solve", head: s.head, tail: []byte(tail), insts: []*solveInst{inst}}
		default:
			a := genAdmit(r)
			return &request{kind: kAdmit, method: "POST", path: "/v1/admit", head: admitBody(&a), admit: &a}
		}
	}
}

// genColdSolve renders cold-solve's shapes: trees of 255–2047 nodes,
// random DAGs of 20–48 nodes, small DAGs of 8–11 nodes and the paper DFGs.
func genColdSolve(rng *rand.Rand, seed int64) *workload {
	w := &workload{name: "cold-solve", cache: 256}
	render := func(g *dfg.Graph) coldShape {
		return coldShape{g: g, head: append(append([]byte(`{"graph":`), mustJSON(g)...), `,"seed":`...)}
	}
	var trees, dags, small []coldShape
	for _, n := range stratified(rng, coldTreeShapes, 255, 2047) {
		trees = append(trees, render(dfg.RandomTree(rng, n)))
	}
	for _, n := range stratified(rng, coldDAGShapes, 20, 48) {
		dags = append(dags, render(dfg.RandomDAG(rng, n, 0.06)))
	}
	for _, n := range stratified(rng, 16, 8, 11) {
		small = append(small, render(dfg.RandomDAG(rng, n, 0.15)))
	}
	paper := []string{"elliptic", "rls-laguerre", "diffeq"}
	paperG := make([]*dfg.Graph, len(paper))
	for i, p := range paper {
		b, _ := benchdfg.Lookup(p)
		paperG[i] = b.Build()
	}
	w.stream = func(c int) func() *request {
		return coldGen(subRand(seed, c), trees, dags, small, paper, paperG)
	}
	// The set-up's request is always the tree shape nearest the median
	// size, so setup_s does not swing with which kind a seed draws first.
	mid := trees[0]
	for _, s := range trees {
		if abs(s.g.N()-1151) < abs(mid.g.N()-1151) {
			mid = s
		}
	}
	fs := rng.Int63()
	inst := &solveInst{graph: mid.g, seed: fs, types: 4, slack: 12, algo: "auto", tree: true}
	w.first = request{kind: kSolve, method: "POST", path: "/v1/solve", head: mid.head,
		tail: []byte(fmt.Sprintf(`%d,"types":4,"slack":12}`, fs)), insts: []*solveInst{inst}}
	return w
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ---- session-patch ----

const (
	sessCount     = 16
	sessGetsPerOp = 2 // GET reads interleaved after each PATCH
)

// sessionPlan is one stateful session: its initial instance and the
// patches drawn for it so far. Patches are drawn on demand, by the one
// client that owns the session, from the session's own generator; patch k
// produces generation k+2 (the PUT is generation 1). The certifier replays
// them on a mirror of its own.
type sessionPlan struct {
	id       string
	graph    *dfg.Graph
	table    *fu.Table
	deadline int
	put      []byte
	patches  []patchPlan
	rng      *rand.Rand
	m        *mirror // the instance after the last drawn patch
}

type patchPlan struct {
	body []byte
	ops  []server.PatchOp
}

func newSessionPlan(id string, g *dfg.Graph, tab *fu.Table, deadline int, rng *rand.Rand) *sessionPlan {
	return &sessionPlan{id: id, graph: g, table: tab, deadline: deadline, rng: rng, m: newMirror(g, tab, deadline),
		put: mustJSON(server.SolveRequest{
			Graph:    mustJSON(g),
			Table:    &server.TablePayload{Time: tab.Time, Cost: tab.Cost},
			Deadline: deadline,
		})}
}

// nextPatch draws the session's next patch and returns the generation it
// produces.
func (sp *sessionPlan) nextPatch() int {
	ops := sp.m.randomPatch(sp.rng)
	sp.patches = append(sp.patches, patchPlan{body: mustJSON(server.PatchRequest{Ops: ops}), ops: ops})
	return len(sp.patches) + 1
}

// sessRandBase offsets the sessions' generators from the clients'.
const sessRandBase = 1 << 20

// genSessionPatch: sessions of 511–2047-node trees are PUT in set-up; each
// client owns sessions c, c+clients, … and cycles over them, sending one
// PATCH and then sessGetsPerOp GETs of the session it just patched. Patch
// mix: 70% 1–4 set_row ops, 20% set_deadline, 10% a re-parent
// (remove_edge + add_edge, keeping the instance a tree). Session s's
// patches depend only on (seed, s).
func genSessionPatch(rng *rand.Rand, seed int64) *workload {
	w := &workload{name: "session-patch", cache: 256}
	// Session i takes size stratum i, unshuffled: clients own alternate
	// sessions, so each client gets an even share of large and small trees
	// and the closed loop's throughput does not hinge on the seed's split.
	sizes := stratified(rng, sessCount, 511, 2047)
	slices.Sort(sizes)
	for i, n := range sizes {
		g := dfg.RandomTree(rng, n)
		tab := fu.RandomTable(rng, n, 3)
		lo, hi := newMirror(g, tab, 0).makespans()
		deadline := lo + int(float64(hi-lo)*(0.3+0.4*rng.Float64()))
		sp := newSessionPlan("s"+strconv.Itoa(i), g, tab, deadline, subRand(seed, sessRandBase+i))
		w.sessions = append(w.sessions, sp)
		w.warm = append(w.warm, request{kind: kPut, method: "PUT", path: "/v1/instances/" + sp.id, head: sp.put, sess: i, gen: 1})
	}
	w.first = request{kind: kGet, method: "GET", path: "/v1/instances/s0", sess: 0, gen: 1}
	// Only the run's clients may draw: each session has one owner.
	w.stream = func(c int) func() *request {
		var owned []int
		for s := c; s < sessCount; s += w.clients {
			owned = append(owned, s)
		}
		var queue []*request
		turn := 0
		return func() *request {
			if len(queue) == 0 {
				s := owned[turn%len(owned)]
				turn++
				sp := w.sessions[s]
				gen := sp.nextPatch()
				path := "/v1/instances/" + sp.id
				queue = append(queue, &request{kind: kPatch, method: "PATCH", path: path, head: sp.patches[gen-2].body, sess: s, gen: gen})
				for g := 0; g < sessGetsPerOp; g++ {
					queue = append(queue, &request{kind: kGet, method: "GET", path: path, sess: s, gen: gen})
				}
			}
			r := queue[0]
			queue = queue[1:]
			return r
		}
	}
	return w
}

// mirror is the client-side copy of a session's instance. Patches apply
// here with the server's semantics: set_row replaces a row, add_edge
// appends, remove_edge deletes the first matching edge.
type mirror struct {
	n        int
	edges    [][2]int
	time     [][]int
	cost     [][]int64
	deadline int
	parent   []int      // tree bookkeeping for re-parent draws
	names    []dfg.Node // node names and ops of the PUT body
	graph    *dfg.Graph // built from edges; nil after a structural op
	// order lists the nodes parents first; nil after a structural op.
	// fin and slow are makespans' scratch.
	order, fin, slow []int
}

func newMirror(g *dfg.Graph, tab *fu.Table, deadline int) *mirror {
	m := &mirror{n: g.N(), deadline: deadline, parent: make([]int, g.N()), names: g.Nodes()}
	for i := range m.parent {
		m.parent[i] = -1
	}
	for _, e := range g.Edges() {
		m.edges = append(m.edges, [2]int{int(e.From), int(e.To)})
		m.parent[e.To] = int(e.From)
	}
	for v := 0; v < m.n; v++ {
		m.time = append(m.time, append([]int(nil), tab.Time[v]...))
		m.cost = append(m.cost, append([]int64(nil), tab.Cost[v]...))
	}
	return m
}

// makespans returns the longest path under the fastest and the slowest
// type of every node. Clients call it for every patch they draw, so it
// walks a cached parents-first order with reused scratch.
func (m *mirror) makespans() (lo, hi int) {
	if m.order == nil {
		m.order = m.parentsFirst()
		m.fin, m.slow = make([]int, m.n), make([]int, m.n)
	}
	for _, v := range m.order {
		fast, sl := m.time[v][0], m.time[v][0]
		for _, t := range m.time[v] {
			fast, sl = min(fast, t), max(sl, t)
		}
		if p := m.parent[v]; p >= 0 {
			fast += m.fin[p]
			sl += m.slow[p]
		}
		m.fin[v], m.slow[v] = fast, sl
		lo, hi = max(lo, fast), max(hi, sl)
	}
	return lo, hi
}

// parentsFirst orders the forest breadth-first from its roots: re-parents
// break index order.
func (m *mirror) parentsFirst() []int {
	kids := make([][]int, m.n)
	order := make([]int, 0, m.n)
	for v, p := range m.parent {
		if p < 0 {
			order = append(order, v)
		} else {
			kids[p] = append(kids[p], v)
		}
	}
	for i := 0; i < len(order); i++ {
		order = append(order, kids[order[i]]...)
	}
	return order
}

// randomRow draws a row shaped like fu.RandomTable's: times rise and costs
// fall with the type index.
func randomRow(rng *rand.Rand, k int) ([]int, []int64) {
	times, costs := make([]int, k), make([]int64, k)
	tm := 1 + rng.Intn(3)
	for j := 0; j < k; j++ {
		times[j] = tm
		tm += 1 + rng.Intn(3)
	}
	c := int64(1 + rng.Intn(4))
	for j := k - 1; j >= 0; j-- {
		costs[j] = c
		c += int64(1 + rng.Intn(16))
	}
	return times, costs
}

// randomPatch draws one patch, applies it to the mirror and returns its ops.
// A patch that would leave the deadline below the minimum makespan carries
// a trailing set_deadline, so every generation stays feasible.
func (m *mirror) randomPatch(rng *rand.Rand) []server.PatchOp {
	var ops []server.PatchOp
	switch u := rng.Intn(10); {
	case u < 7:
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			v := rng.Intn(m.n)
			t, c := randomRow(rng, len(m.time[v]))
			ops = append(ops, server.PatchOp{Op: "set_row", Node: intp(v), Time: t, Cost: c})
		}
	case u < 9:
		lo, hi := m.makespans()
		ops = append(ops, server.PatchOp{Op: "set_deadline", Deadline: lo + int(float64(hi-lo)*(0.3+0.4*rng.Float64()))})
	default:
		// Re-parent: a non-root v moves under a node outside its subtree.
		// Some draws have no such node (v's subtree is everything but its
		// parent), so the draw is retried a bounded number of times and
		// falls back to a row edit.
		for try := 0; try < 16 && ops == nil; try++ {
			v, np := rng.Intn(m.n), rng.Intn(m.n)
			if m.parent[v] < 0 || np == m.parent[v] || m.inSubtree(np, v) {
				continue
			}
			ops = append(ops,
				server.PatchOp{Op: "remove_edge", From: intp(m.parent[v]), To: intp(v)},
				server.PatchOp{Op: "add_edge", From: intp(np), To: intp(v)})
		}
		if ops == nil {
			v := rng.Intn(m.n)
			t, c := randomRow(rng, len(m.time[v]))
			ops = append(ops, server.PatchOp{Op: "set_row", Node: intp(v), Time: t, Cost: c})
		}
	}
	for _, op := range ops {
		m.apply(op)
	}
	if lo, _ := m.makespans(); lo > m.deadline {
		op := server.PatchOp{Op: "set_deadline", Deadline: lo + 2}
		m.apply(op)
		ops = append(ops, op)
	}
	return ops
}

// inSubtree reports whether u lies in the subtree rooted at v.
func (m *mirror) inSubtree(u, v int) bool {
	for ; u >= 0; u = m.parent[u] {
		if u == v {
			return true
		}
	}
	return false
}

func (m *mirror) apply(op server.PatchOp) {
	switch op.Op {
	case "set_row":
		m.time[*op.Node] = append([]int(nil), op.Time...)
		m.cost[*op.Node] = append([]int64(nil), op.Cost...)
	case "set_deadline":
		m.deadline = op.Deadline
	case "add_edge":
		m.edges = append(m.edges, [2]int{*op.From, *op.To})
		m.parent[*op.To] = *op.From
		m.graph, m.order = nil, nil
	case "remove_edge":
		m.graph, m.order = nil, nil
		for i, e := range m.edges {
			if e[0] == *op.From && e[1] == *op.To {
				m.edges = append(m.edges[:i:i], m.edges[i+1:]...)
				break
			}
		}
		m.parent[*op.To] = -1
	}
}

// problem materializes the mirror as a hap instance, node names matching
// the PUT body so canonical digests agree. The graph is shared between
// generations until a structural op changes it.
func (m *mirror) problem() hap.Problem {
	if m.graph == nil {
		m.graph = dfg.New()
		for _, nd := range m.names {
			m.graph.MustAddNode(nd.Name, nd.Op)
		}
		for _, e := range m.edges {
			m.graph.MustAddEdge(dfg.NodeID(e[0]), dfg.NodeID(e[1]), 0)
		}
	}
	// Rows are replaced, never written in place, so generations share them.
	tab := &fu.Table{Time: slices.Clone(m.time), Cost: slices.Clone(m.cost)}
	return hap.Problem{Graph: m.graph, Table: tab, Deadline: m.deadline}
}
