package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"hetsynth/internal/benchdfg"
	"hetsynth/internal/canon"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/rta"
	"hetsynth/internal/sched"
	"hetsynth/internal/server"
)

// certifier checks answers against the instances their requests carry. References
// (the optimal tree cost, the in-process admission verdict, the session
// mirror) are computed once per instance and shared.
type certifier struct {
	w *workload

	mu     sync.Mutex
	treeOf map[*solveInst]*lazy[int64]            // TreeAssign reference cost
	admOf  map[*admitInst]*lazy[rta.SearchResult] // CheapestConfig reference
	sessOf map[[2]int]*lazy[*sessionRef]          // (session, gen) → mirror reference
	replay map[int]*sessionReplay                 // session → mirror advanced so far
}

// lazy computes a value once.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(f func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = f() })
	return l.v, l.err
}

func newCertifier(w *workload) *certifier {
	return &certifier{w: w,
		treeOf: map[*solveInst]*lazy[int64]{},
		admOf:  map[*admitInst]*lazy[rta.SearchResult]{},
		sessOf: map[[2]int]*lazy[*sessionRef]{},
		replay: map[int]*sessionReplay{},
	}
}

func lazyOf[K comparable, T any](mu *sync.Mutex, m map[K]*lazy[T], k K) *lazy[T] {
	mu.Lock()
	defer mu.Unlock()
	l, ok := m[k]
	if !ok {
		l = &lazy[T]{}
		m[k] = l
	}
	return l
}

// verdict is the certification result of one answer.
type verdict struct {
	err   error // nil: the answer is right
	exact int   // answers with quality "exact" in this response
	rated int   // answers carrying a quality at all
}

// check certifies one 2xx response body.
func (c *certifier) check(o *outcome) verdict {
	r := o.req
	switch r.kind {
	case kSolve:
		var res *server.SolveResponse
		var err error
		if r.bin {
			res, err = server.DecodeBinSolveResponse(o.body)
		} else {
			res = new(server.SolveResponse)
			err = json.Unmarshal(o.body, res)
		}
		if err != nil {
			return verdict{err: fmt.Errorf("decode solve answer: %w", err)}
		}
		if len(r.insts) != 1 {
			return verdict{err: fmt.Errorf("solve request carries %d instances", len(r.insts))}
		}
		return c.checkSolve(r.insts[0], &res.SolveResult)
	case kBatch:
		var res server.BatchResponse
		if err := json.Unmarshal(o.body, &res); err != nil {
			return verdict{err: fmt.Errorf("decode batch answer: %w", err)}
		}
		if len(res.Results) != len(r.insts) {
			return verdict{err: fmt.Errorf("batch: %d results for %d entries", len(res.Results), len(r.insts))}
		}
		var v verdict
		for e, ent := range res.Results {
			if ent.Result == nil {
				return verdict{err: fmt.Errorf("batch entry %d: %s", e, ent.Error)}
			}
			ev := c.checkSolve(r.insts[e], ent.Result)
			if ev.err != nil {
				return verdict{err: fmt.Errorf("batch entry %d: %w", e, ev.err)}
			}
			v.exact += ev.exact
			v.rated += ev.rated
		}
		return v
	case kAdmit:
		var res server.AdmitResponse
		if err := json.Unmarshal(o.body, &res); err != nil {
			return verdict{err: fmt.Errorf("decode admit answer: %w", err)}
		}
		return c.checkAdmit(r.admit, &res.AdmitResult)
	case kPatch, kGet, kPut:
		return c.checkSession(r.sess, r.gen, o.body)
	}
	return verdict{err: fmt.Errorf("unknown request kind %d", r.kind)}
}

func rate(quality string) verdict {
	v := verdict{rated: 1}
	if quality == string(hap.QualityExact) {
		v.exact = 1
	}
	return v
}

// checkSolve certifies a solve answer: the deadline is MinMakespan+slack,
// hap.Evaluate on the generated instance reproduces the reported cost and
// length, the length meets the deadline, an exact tree answer matches the
// TreeAssign reference, and a requested schedule is valid.
func (c *certifier) checkSolve(inst *solveInst, res *server.SolveResult) verdict {
	tab := inst.tab()
	mk, err := hap.MinMakespan(inst.graph, tab)
	if err != nil {
		return verdict{err: err}
	}
	p := hap.Problem{Graph: inst.graph, Table: tab, Deadline: mk + inst.slack}
	if res.Deadline != p.Deadline {
		return verdict{err: fmt.Errorf("deadline %d, want %d", res.Deadline, p.Deadline)}
	}
	if err := checkAssignment(p, res.Assignment, res.Cost, res.Length); err != nil {
		return verdict{err: err}
	}
	if inst.tree {
		if res.Quality != string(hap.QualityExact) {
			return verdict{err: fmt.Errorf("tree answer quality %q, want exact", res.Quality)}
		}
		want, err := lazyOf(&c.mu, c.treeOf, inst).get(func() (int64, error) {
			sol, err := hap.TreeAssign(p)
			return sol.Cost, err
		})
		if err != nil {
			return verdict{err: fmt.Errorf("reference: %w", err)}
		}
		if res.Cost != want {
			return verdict{err: fmt.Errorf("tree cost %d, TreeAssign reference %d", res.Cost, want)}
		}
	}
	if inst.schedule {
		s := res.Schedule
		if s == nil {
			return verdict{err: fmt.Errorf("schedule requested but missing")}
		}
		assign := make(hap.Assignment, len(res.Assignment))
		for v, k := range res.Assignment {
			assign[v] = fu.TypeID(k)
		}
		sc := &sched.Schedule{Assign: assign, Start: s.Start, Instance: s.Instance, Length: s.Length, Times: hap.Times(tab, assign)}
		if err := sched.ValidateSchedule(inst.graph, sc, sched.Config(s.Config), p.Deadline); err != nil {
			return verdict{err: fmt.Errorf("schedule: %w", err)}
		}
	}
	return rate(res.Quality)
}

// checkAssignment verifies a reported assignment against the instance.
func checkAssignment(p hap.Problem, a []int, cost int64, length int) error {
	if len(a) != p.Graph.N() {
		return fmt.Errorf("assignment covers %d nodes, instance has %d", len(a), p.Graph.N())
	}
	assign := make(hap.Assignment, len(a))
	for v, k := range a {
		if k < 0 || k >= p.Table.K() {
			return fmt.Errorf("node %d assigned type %d of %d", v, k, p.Table.K())
		}
		assign[v] = fu.TypeID(k)
	}
	sol, err := hap.Evaluate(p, assign)
	if err != nil {
		return fmt.Errorf("evaluate: %w", err)
	}
	if sol.Cost != cost || sol.Length != length {
		return fmt.Errorf("reported cost %d length %d, evaluated cost %d length %d", cost, length, sol.Cost, sol.Length)
	}
	if sol.Length > p.Deadline {
		return fmt.Errorf("length %d exceeds deadline %d", sol.Length, p.Deadline)
	}
	return nil
}

// taskSet materializes an admission request exactly as the server resolves
// it: bundled graph, seeded random table.
func taskSet(a *admitInst) rta.TaskSet {
	var set rta.TaskSet
	for _, s := range a.tasks {
		b, _ := benchdfg.Lookup(s.Bench)
		g := b.Build()
		set = append(set, rta.Task{Graph: g, Table: fu.RandomTable(rand.New(rand.NewSource(s.Seed)), g.N(), s.Types),
			Period: s.Period, Deadline: s.Deadline})
	}
	return set
}

// checkAdmit certifies an admission verdict against in-process
// rta.CheapestConfig on the same set.
func (c *certifier) checkAdmit(a *admitInst, res *server.AdmitResult) verdict {
	if a == nil {
		return verdict{err: fmt.Errorf("admit request carries no task set")}
	}
	want, err := lazyOf(&c.mu, c.admOf, a).get(func() (rta.SearchResult, error) {
		return rta.CheapestConfig(context.Background(), taskSet(a), rta.SearchOptions{MaxPerType: a.maxPerType}, rta.Options{})
	})
	if err != nil {
		return verdict{err: fmt.Errorf("admit reference: %w", err)}
	}
	if res.Found == nil || *res.Found != want.Found || res.Admitted != want.Found {
		return verdict{err: fmt.Errorf("admit found=%v admitted=%v, reference found=%v", res.Found, res.Admitted, want.Found)}
	}
	if want.Found {
		if !slices.Equal(res.Config, []int(want.Config)) || res.Price == nil || *res.Price != want.Price {
			return verdict{err: fmt.Errorf("admit config %v price %v, reference %v price %d", res.Config, res.Price, want.Config, want.Price)}
		}
	}
	return rate(res.Quality)
}

// sessionRef is the client-side truth for one session generation.
type sessionRef struct {
	prob   hap.Problem
	digest string
	cost   int64

	// body is the first answer certified for this generation. A later
	// read of the same generation that returns the same bytes carries the
	// same answer and is certified by comparison.
	mu   sync.Mutex
	body []byte
}

// sessionReplay advances a session's mirror generation by generation.
type sessionReplay struct {
	mu  sync.Mutex
	m   *mirror
	gen int
}

// mirrorAt returns the instance of session s at generation gen. Replays
// only move forward, so callers certify each session's answers in
// generation order (certifyAll sorts them).
func (c *certifier) mirrorAt(s, gen int) (hap.Problem, error) {
	sp := c.w.sessions[s]
	c.mu.Lock()
	rp, ok := c.replay[s]
	if !ok {
		rp = &sessionReplay{m: newMirror(sp.graph, sp.table, sp.deadline), gen: 1}
		c.replay[s] = rp
	}
	c.mu.Unlock()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if gen < rp.gen || gen-2 >= len(sp.patches) {
		return hap.Problem{}, fmt.Errorf("session %s: generation %d out of replay order (at %d)", sp.id, gen, rp.gen)
	}
	for rp.gen < gen {
		for _, op := range sp.patches[rp.gen-1].ops {
			rp.m.apply(op)
		}
		rp.gen++
	}
	return rp.m.problem(), nil
}

// sessFreshEvery: a fresh TreeAssign of the mirror checks the optimal cost
// of every sessFreshEvery-th generation; a fresh solve per generation would
// cost more than the measured run itself.
const sessFreshEvery = 4

// checkSession certifies a session view: the generation is the one the
// client produced, the canonical digest matches the mirror's, the answer
// is a feasible assignment of the mirror whose evaluated cost is the
// reported one, and on every sessFreshEvery-th generation that cost is the
// optimum of a fresh TreeAssign of the mirror.
func (c *certifier) checkSession(s, gen int, body []byte) verdict {
	var v server.SessionView
	ref, err := lazyOf(&c.mu, c.sessOf, [2]int{s, gen}).get(func() (*sessionRef, error) {
		p, err := c.mirrorAt(s, gen)
		if err != nil {
			return nil, err
		}
		ref := &sessionRef{prob: p, digest: canon.Instance(p.Graph, p.Table), cost: -1}
		if gen%sessFreshEvery == 0 {
			sol, err := hap.TreeAssign(p)
			if err != nil {
				return nil, err
			}
			ref.cost = sol.Cost
		}
		return ref, nil
	})
	if err != nil {
		return verdict{err: fmt.Errorf("session reference: %w", err)}
	}
	ref.mu.Lock()
	same := ref.body != nil && bytes.Equal(ref.body, body)
	ref.mu.Unlock()
	if same {
		return verdict{exact: 1, rated: 1}
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return verdict{err: fmt.Errorf("decode session view: %w", err)}
	}
	vd := c.checkView(s, gen, ref, &v)
	if vd.err == nil && vd.exact == 1 {
		ref.mu.Lock()
		if ref.body == nil {
			ref.body = body
		}
		ref.mu.Unlock()
	}
	return vd
}

func (c *certifier) checkView(s, gen int, ref *sessionRef, v *server.SessionView) verdict {
	if v.Gen != int64(gen) {
		return verdict{err: fmt.Errorf("session %d: generation %d, want %d", s, v.Gen, gen)}
	}
	if v.Digest != ref.digest {
		return verdict{err: fmt.Errorf("session %d gen %d: digest %s, mirror %s", s, gen, v.Digest, ref.digest)}
	}
	if v.Result == nil || v.Infeasible {
		return verdict{err: fmt.Errorf("session %d gen %d: no result", s, gen)}
	}
	if v.Result.Deadline != ref.prob.Deadline {
		return verdict{err: fmt.Errorf("session %d gen %d: deadline %d, mirror %d", s, gen, v.Result.Deadline, ref.prob.Deadline)}
	}
	if err := checkAssignment(ref.prob, v.Result.Assignment, v.Result.Cost, v.Result.Length); err != nil {
		return verdict{err: fmt.Errorf("session %d gen %d: %w", s, gen, err)}
	}
	if ref.cost >= 0 && v.Result.Cost != ref.cost {
		return verdict{err: fmt.Errorf("session %d gen %d: cost %d, fresh solve %d", s, gen, v.Result.Cost, ref.cost)}
	}
	return rate(v.Result.Quality)
}

// tally is the certification summary of a set of outcomes.
type tally struct {
	attempted, failed, wrong int
	exact, rated             int
	firstWrong               error
}

// certifyAll certifies every outcome on `workers` goroutines. Session
// answers are certified in generation order per session so the mirror
// replays forward only.
func (c *certifier) certifyAll(outs []outcome) tally {
	order := make([]int, len(outs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := outs[order[a]].req, outs[order[b]].req
		sa, sb := ra.kind >= kPatch, rb.kind >= kPatch
		if sa != sb || !sa {
			return !sa && sb
		}
		return ra.sess < rb.sess || ra.sess == rb.sess && ra.gen < rb.gen
	})
	// Sessions are independent: route each session to one worker.
	workers := runtime.GOMAXPROCS(0)
	lanes := make([][]int, workers)
	for n, i := range order {
		lane := n % workers
		if r := outs[i].req; r.kind >= kPatch {
			lane = r.sess % workers
		}
		lanes[lane] = append(lanes[lane], i)
	}
	verdicts := make([]verdict, len(outs))
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			for _, i := range lane {
				if outs[i].ok() {
					verdicts[i] = c.check(&outs[i])
				}
			}
		}(lane)
	}
	wg.Wait()
	var t tally
	for i := range outs {
		t.attempted++
		o := &outs[i]
		switch {
		case !o.ok():
			t.failed++
		case verdicts[i].err != nil:
			t.failed++
			t.wrong++
			if t.firstWrong == nil {
				t.firstWrong = fmt.Errorf("%s %s: %w", o.req.method, o.req.path, verdicts[i].err)
			}
		default:
			t.exact += verdicts[i].exact
			t.rated += verdicts[i].rated
		}
	}
	return t
}
