package hap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// parallelMinDirty is the dirty-node count below which the tree DP stays
// serial: handing a node to a worker costs more than computing a small
// curve, and the paper's benchmark trees are all far below this size.
const parallelMinDirty = 512

// treeSolver carries the sparse-DP state of one out-forest problem so that
// callers can re-solve incrementally. TreeAssign builds one, solves once and
// discards it; DFG_Assign_Repeat keeps it across iterations — pinning a
// duplicated node's copies dirties only the curves on the copies' ancestor
// paths (tree parents are unique), so each re-solve recomputes Σ affected
// path lengths worth of nodes instead of the whole tree.
type treeSolver struct {
	p        Problem
	children [][]dfg.NodeID // zero-delay successors, precomputed once
	parent   []int32        // unique tree parent, -1 at roots
	roots    []dfg.NodeID
	order    []dfg.NodeID // children before parents
	cand     [][]fu.TypeID

	// Retained per-node curves: a curveRef per node into the solver-owned
	// flat arenas (arena.go) — contiguous storage, 12-byte handles, pooled
	// backing stores until seal() moves them into one exact-size block.
	refs   []curveRef
	arenas []*curveArena

	// arenaMu guards growth of the arenas slice on the (unreachable in
	// practice) overflow path of a parallel solve; see recomputeParallel.
	arenaMu sync.Mutex
	// ptmp carries curve slice headers from the worker that computed a node
	// to the worker that reads it during a parallel solve. Workers must not
	// read an arena's mutable pts header while its owner appends, so each
	// store captures the (immutable once written) points as a slice and the
	// parent reads that instead of resolving its curveRef.
	ptmp []curve

	dirty  []bool
	ndirty int
	down   []int      // scratch for the longest-path check in solve
	tb     []tbFrame  // traceback stack, reused across solveAt calls
	sc     *dpScratch // serial-path scratch, reused across re-solves; nil after release
}

// newTreeSolver prepares the solver for an out-forest problem, with the same
// optional per-node type mask treeAssignMasked documents: allowed[v][k] ==
// false forbids type k on node v; a nil mask (or nil row) allows everything.
// Every node starts dirty, so the first solve computes the full DP.
//
// reversed runs the DP on the edge-reversed graph without materializing the
// transpose: children become the zero-delay predecessors and a plain
// topological order serves as the children-before-parents order. Reversing
// edges preserves every path length and the per-node type choices, so the
// optimum (cost, length, assignment) carries over to the original unchanged —
// this is how in-forests are solved without copying the graph each call.
func newTreeSolver(p Problem, allowed [][]bool, reversed bool) (*treeSolver, error) {
	g, t := p.Graph, p.Table
	n, K := g.N(), t.K()
	var order []dfg.NodeID
	var err error
	if reversed {
		order, err = g.TopoOrder()
	} else {
		order, err = g.ReverseTopoOrder()
	}
	if err != nil {
		return nil, err
	}
	s := &treeSolver{
		p:        p,
		children: make([][]dfg.NodeID, n),
		parent:   make([]int32, n),
		order:    order,
		cand:     make([][]fu.TypeID, n),
		refs:     make([]curveRef, n),
		dirty:    make([]bool, n),
		ndirty:   n,
		// hetsynth:pool-escape solver-owned scratch, held until release() recycles it
		sc: getScratch(),
	}
	// hetsynth:pool-escape serial arena, held until release() recycles it
	s.arenas = append(s.arenas, getArena())
	for v := 0; v < n; v++ {
		s.parent[v] = -1
		s.dirty[v] = true
	}
	// Adjacency from the raw edge list into one shared arena: two
	// allocations total instead of one g.Succ slice per node.
	m := g.M()
	deg := make([]int, n)
	total := 0
	for i := 0; i < m; i++ {
		if e := g.Edge(i); e.Delays == 0 {
			if reversed {
				deg[e.To]++
			} else {
				deg[e.From]++
			}
			total++
		}
	}
	childArena := make([]dfg.NodeID, 0, total)
	for v := 0; v < n; v++ {
		at := len(childArena)
		s.children[v] = childArena[at : at : at+deg[v]]
		childArena = childArena[:at+deg[v]]
	}
	fill := deg // reuse as per-node cursor
	for v := range fill {
		fill[v] = 0
	}
	for i := 0; i < m; i++ {
		e := g.Edge(i)
		if e.Delays != 0 {
			continue
		}
		from, to := e.From, e.To
		if reversed {
			from, to = to, from
		}
		s.children[from] = s.children[from][:fill[from]+1]
		s.children[from][fill[from]] = to
		fill[from]++
		s.parent[to] = int32(from)
	}
	for v := 0; v < n; v++ {
		if s.parent[v] < 0 {
			s.roots = append(s.roots, dfg.NodeID(v))
		}
	}
	// Per node, the candidate types: masked rows verbatim, unmasked rows
	// with duplicate (time, cost) pairs collapsed — interchangeable options
	// cannot change the optimum, and skipping them is what makes the
	// PruneDominated pre-pass pay off inside the DP. One arena backs every
	// row (each appends at most K entries, so it never reallocates).
	candArena := make([]fu.TypeID, 0, n*K)
	for v := 0; v < n; v++ {
		at := len(candArena)
		if allowed != nil && allowed[v] != nil {
			for k := 0; k < K; k++ {
				if allowed[v][k] {
					candArena = append(candArena, fu.TypeID(k))
				}
			}
		} else {
			candArena = appendCandTypes(candArena, t, v)
		}
		s.cand[v] = candArena[at:len(candArena):len(candArena)]
	}
	return s, nil
}

// appendCandTypes appends node v's candidate types to dst: every type of the
// table row, with duplicate (time, cost) pairs collapsed onto the lowest
// type id. Construction and incremental row edits both go through this one
// rule, so a re-solved row can never diverge from a from-scratch build.
func appendCandTypes(dst []fu.TypeID, t *fu.Table, v int) []fu.TypeID {
	K := t.K()
	for k := 0; k < K; k++ {
		dup := false
		for j := 0; j < k; j++ {
			if t.Time[v][j] == t.Time[v][k] && t.Cost[v][j] == t.Cost[v][k] {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, fu.TypeID(k))
		}
	}
	return dst
}

// release recycles the solver's scratch buffers and curve arenas — the
// backing stores every retained curve lives in — into the package pools. The
// solver, its curves, and any frontier read off them are invalid afterwards;
// callers may release only when they are discarding the solver and have
// copied everything they keep (Solution and FrontierPoint values copy, never
// alias). Solvers retained for later tracebacks (FrontierSolver) are never
// released.
func (s *treeSolver) release() {
	if s.sc != nil {
		putScratch(s.sc)
		s.sc = nil
	}
	for _, a := range s.arenas {
		putArena(a)
	}
	s.arenas = nil
	s.refs = nil
}

// seal moves every retained curve into one exact-size arena the solver owns
// outright and hands the pooled build arenas, the scratch and the parallel
// handoff headers back, keeping only Σ|curve| points. A sealed solver is
// read-only: solveAt still tracebacks any budget, but nothing may dirty,
// recompute or re-sum it (frontier needs the scratch). FrontierSolver seals
// once its curves and frontier are built, so a cached solver holds exactly
// its curves while the next cold build reuses the warm arenas.
func (s *treeSolver) seal() {
	total := 0
	for _, r := range s.refs {
		total += int(r.n)
	}
	if total > maxArenaPoints {
		return // offsets would not fit one arena; keep the build arenas
	}
	pts := make([]curvePoint, 0, total)
	for v, r := range s.refs {
		if r.n == 0 {
			continue
		}
		at := len(pts)
		src := s.arenas[r.ar].pts
		pts = append(pts, src[r.off:r.off+r.n:r.off+r.n]...)
		s.refs[v] = curveRef{off: int32(at), n: r.n}
	}
	for i, a := range s.arenas {
		putArena(a)
		s.arenas[i] = nil
	}
	s.arenas = append(s.arenas[:0], &curveArena{pts: pts})
	putScratch(s.sc)
	s.sc = nil
	s.ptmp = nil
}

// curveOf returns node v's retained curve: a view into the owning arena.
// Callers must not append to it; the view's capacity is pinned, so a stray
// append cannot corrupt a neighbor, but the result must be treated as
// read-only either way.
//
// hetsynth:hotpath
func (s *treeSolver) curveOf(v dfg.NodeID) curve {
	r := s.refs[v]
	if r.n == 0 {
		return nil
	}
	pts := s.arenas[r.ar].pts
	return curve(pts[r.off : r.off+r.n : r.off+r.n])
}

// storeCurve retains pts (a transient envelope result) as node v's curve by
// copying it into arena ar. A nil/empty pts records the infeasible curve.
//
// hetsynth:hotpath
func (s *treeSolver) storeCurve(v dfg.NodeID, pts curve, ar int32) {
	if len(pts) == 0 {
		s.refs[v] = curveRef{}
		return
	}
	a := s.arenas[ar]
	if len(a.pts)+len(pts) > maxArenaPoints {
		s.compactArena(ar)
		a = s.arenas[ar]
		if len(a.pts)+len(pts) > maxArenaPoints {
			// Even fully compacted the live curves don't fit one arena's
			// offset space; open a fresh arena and store there. Unreachable
			// for real instances (2^31 points is 32 GiB of curve), but the
			// DP must stay correct if it ever happens.
			ar = int32(len(s.arenas))
			// hetsynth:pool-escape overflow arena, held until release() recycles it
			s.arenas = append(s.arenas, getArena())
			a = s.arenas[ar]
		}
	}
	at := len(a.pts)
	a.pts = append(a.pts, pts...)
	s.refs[v] = curveRef{off: int32(at), n: int32(len(pts)), ar: ar}
}

// compactArena rewrites arena ar to contain only the curves still referenced
// by a node, reclaiming the ranges abandoned by incremental re-solves. It
// runs only when an arena would outgrow its int32 offset space.
func (s *treeSolver) compactArena(ar int32) {
	old := s.arenas[ar].pts
	fresh := make([]curvePoint, 0, len(old))
	for v := range s.refs {
		r := s.refs[v]
		if r.ar != ar || r.n == 0 {
			continue
		}
		at := len(fresh)
		fresh = append(fresh, old[r.off:r.off+r.n:r.off+r.n]...)
		s.refs[v] = curveRef{off: int32(at), n: r.n, ar: ar}
	}
	s.arenas[ar].pts = fresh
}

// pin restricts every listed node to the single type k and dirties the
// curves that depend on it: the node itself and its ancestors up to the
// root.
func (s *treeSolver) pin(nodes []dfg.NodeID, k fu.TypeID) {
	for _, w := range nodes {
		s.cand[w] = []fu.TypeID{k}
		s.markDirty(w)
	}
}

// markDirty invalidates node w's curve and every curve that depends on it:
// the ancestors up to the root. The climb stops at the first already-dirty
// node, whose own climb has marked the rest of the path, so a batch of
// invalidations costs Σ fresh path lengths, not Σ full path lengths.
func (s *treeSolver) markDirty(w dfg.NodeID) {
	for v := int32(w); v >= 0; v = s.parent[v] {
		if s.dirty[v] {
			break
		}
		s.dirty[v] = true
		s.ndirty++
	}
}

// markAllDirty invalidates every curve; the next recompute is a full DP.
func (s *treeSolver) markAllDirty() {
	for v := range s.dirty {
		s.dirty[v] = true
	}
	s.ndirty = len(s.dirty)
}

// computeCurve builds node v's Pareto curve from its children's curves. The
// result is transient (it aliases sc.pts); the caller copies it into retained
// storage via storeCurve. tmp, when non-nil, overrides the child lookup with
// captured slice headers — the parallel path's race-free handoff (see ptmp).
func (s *treeSolver) computeCurve(v int, sc *dpScratch, tmp []curve) curve {
	var kids []curve
	if n := len(s.children[v]); n > 0 {
		if cap(sc.kids) < n {
			sc.kids = make([]curve, n)
		}
		kids = sc.kids[:n]
		if tmp != nil {
			for i, c := range s.children[v] {
				kids[i] = tmp[c]
			}
		} else {
			for i, c := range s.children[v] {
				kids[i] = s.curveOf(c)
			}
		}
	}
	sum := sumCurves(kids, s.p.Deadline, sc)
	if len(sum) == 0 {
		return nil
	}
	t := s.p.Table
	return envelope(sum, s.cand[v], t.Time[v], t.Cost[v], s.p.Deadline, sc)
}

// recompute brings every dirty curve up to date, children before parents.
// Large all-dirty solves fan independent sibling subtrees out over a worker
// pool; incremental re-solves dirty only root paths (no parallelism to
// exploit) and small trees don't amortize the handoff, so both stay serial.
func (s *treeSolver) recompute() {
	if s.ndirty == 0 {
		return
	}
	if s.ndirty >= parallelMinDirty && runtime.GOMAXPROCS(0) > 1 {
		s.recomputeParallel()
	} else {
		for _, v := range s.order {
			if s.dirty[v] {
				s.storeCurve(v, s.computeCurve(int(v), s.sc, nil), 0)
				s.dirty[v] = false
			}
		}
	}
	s.ndirty = 0
}

// recomputeParallel is the worker-pool evaluation of the dirty set: a node
// becomes ready once its dirty children are done, so independent sibling
// subtrees proceed concurrently. Each worker owns its scratch; a node's
// curve is written by exactly one worker and read by its parent's worker
// only after the ready handoff (atomic counter + channel), which is the
// happens-before edge that keeps the solve race-free.
func (s *treeSolver) recomputeParallel() {
	pending := make([]int32, len(s.dirty))
	ready := make(chan dfg.NodeID, s.ndirty)
	for _, v := range s.order {
		if !s.dirty[v] {
			continue
		}
		cnt := int32(0)
		for _, c := range s.children[v] {
			if s.dirty[c] {
				cnt++
			}
		}
		pending[v] = cnt
		if cnt == 0 {
			ready <- v
		}
	}
	var remaining atomic.Int32
	remaining.Store(int32(s.ndirty))
	workers := runtime.GOMAXPROCS(0)
	if workers > s.ndirty {
		workers = s.ndirty
	}
	// ptmp hands each computed curve to the parent's worker as a captured
	// slice header: resolving a curveRef reads the owning arena's mutable pts
	// header, which would race with the owner's appends even though the
	// points themselves are immutable once written. Clean nodes contribute
	// their retained curves up front, before any worker starts.
	if cap(s.ptmp) < len(s.order) {
		s.ptmp = make([]curve, len(s.order))
	}
	tmp := s.ptmp[:len(s.order)]
	for _, v := range s.order {
		if s.dirty[v] {
			tmp[v] = nil
		} else {
			tmp[v] = s.curveOf(v)
		}
	}
	// One private arena per worker, registered before the workers spawn so
	// the arenas slice itself stays immutable during the run (the overflow
	// path below is the sole, mutex-guarded exception).
	base := len(s.arenas)
	for w := 0; w < workers; w++ {
		// hetsynth:pool-escape per-worker arena, held until release() recycles it
		s.arenas = append(s.arenas, getArena())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ar := int32(base + w)
		a := s.arenas[ar]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getScratch()
			defer putScratch(sc)
			for v := range ready {
				pts := s.computeCurve(int(v), sc, tmp)
				if len(pts) == 0 {
					s.refs[v] = curveRef{}
					tmp[v] = nil
				} else {
					if len(a.pts)+len(pts) > maxArenaPoints {
						// Worker arenas never compact mid-run — other
						// workers' refs are in flight — so overflow opens a
						// fresh arena instead. Appends that relocate a.pts
						// don't invalidate earlier refs or tmp entries:
						// append copies the prefix, so recorded offsets hold
						// against the final backing and old headers keep
						// aliasing the (immutable) prior one.
						s.arenaMu.Lock()
						ar = int32(len(s.arenas))
						// hetsynth:pool-escape worker overflow arena, recycled by release()
						s.arenas = append(s.arenas, getArena())
						a = s.arenas[ar]
						s.arenaMu.Unlock()
					}
					at := len(a.pts)
					a.pts = append(a.pts, pts...)
					s.refs[v] = curveRef{off: int32(at), n: int32(len(pts)), ar: ar}
					tmp[v] = curve(a.pts[at : at+len(pts) : at+len(pts)])
				}
				s.dirty[v] = false
				if p := s.parent[v]; p >= 0 && s.dirty[p] {
					if atomic.AddInt32(&pending[p], -1) == 0 {
						ready <- dfg.NodeID(p)
					}
				}
				if remaining.Add(-1) == 0 {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
}

// solve recomputes what is dirty and extracts the optimum at the deadline.
func (s *treeSolver) solve() (Solution, error) { return s.solveAt(s.p.Deadline) }

// solveAt extracts the optimum at an arbitrary budget <= p.Deadline from the
// already-computed curves. The curves are truncated at p.Deadline, so budgets
// beyond it would silently underreport feasibility; callers guard that.
func (s *treeSolver) solveAt(budget int) (Solution, error) {
	s.recompute()
	L := budget
	var total int64
	for _, r := range s.roots {
		x := s.curveOf(r).eval(L)
		if x == inf {
			return Solution{}, ErrInfeasible
		}
		total += x
	}
	assign, err := s.traceback(L)
	if err != nil {
		return Solution{}, err
	}
	// Cost and length come straight from the forest structure the solver
	// already holds — longest root-to-leaf time via the same children-first
	// order the DP uses — saving Evaluate's topological re-sort of the graph.
	t := s.p.Table
	var cost int64
	length := 0
	if cap(s.down) < len(s.order) {
		s.down = make([]int, len(s.order))
	}
	down := s.down[:len(s.order)]
	for _, v := range s.order {
		cost += t.Cost[v][assign[v]]
		d := 0
		for _, c := range s.children[v] {
			if down[c] > d {
				d = down[c]
			}
		}
		down[v] = d + t.Time[v][assign[v]]
		if down[v] > length {
			length = down[v]
		}
	}
	if cost != total {
		return Solution{}, fmt.Errorf("hap: internal error: traceback cost %d != DP value %d", cost, total)
	}
	if length > L {
		return Solution{}, fmt.Errorf("hap: internal error: Tree_Assign produced length %d > %d", length, L)
	}
	return Solution{Assign: assign, Cost: cost, Length: length}, nil
}

// traceback recovers the assignment realizing the DP optimum. At each node
// it repeats the dense DP's selection rule — the first candidate, in
// ascending type order, that strictly improves the subtree cost at the
// node's budget — so the sparse engine returns the same assignment the
// dense oracle would. The walk uses an explicit stack: path-shaped trees
// (unfolded filters) recurse thousands of frames deep and would overflow a
// goroutine stack.
func (s *treeSolver) traceback(L int) (Assignment, error) {
	t := s.p.Table
	n := len(s.order)
	assign := make(Assignment, n)
	stack := s.tb[:0]
	for _, r := range s.roots {
		stack = append(stack, tbFrame{r, L})
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := int(f.v)
		best := int64(inf)
		bestK := fu.TypeID(-1)
		for _, k := range s.cand[v] {
			rem := f.budget - t.Time[v][k]
			if rem < 0 {
				continue
			}
			sum := t.Cost[v][k]
			ok := true
			for _, c := range s.children[v] {
				xc := s.curveOf(c).eval(rem)
				if xc == inf {
					ok = false
					break
				}
				sum += xc
			}
			if ok && sum < best {
				best = sum
				bestK = k
			}
		}
		if bestK < 0 {
			return nil, fmt.Errorf("hap: internal error: no type for node %d within budget %d", v, f.budget)
		}
		assign[v] = bestK
		rem := f.budget - t.Time[v][bestK]
		for _, c := range s.children[v] {
			stack = append(stack, tbFrame{c, rem})
		}
	}
	s.tb = stack[:0]
	return assign, nil
}

// tbFrame is one pending subtree of the traceback walk.
type tbFrame struct {
	v      dfg.NodeID
	budget int
}

// frontier sums the root curves into the whole-forest deadline→cost curve:
// the minimal set of (deadline, optimal cost) points up to the problem's
// deadline, starting at the minimum makespan. Empty means no deadline up to
// p.Deadline is feasible. Curves must be up to date (recompute first).
func (s *treeSolver) frontier() []FrontierPoint {
	if cap(s.sc.kids) < len(s.roots) {
		s.sc.kids = make([]curve, len(s.roots))
	}
	kids := s.sc.kids[:len(s.roots)]
	for i, r := range s.roots {
		kids[i] = s.curveOf(r)
	}
	sum := sumCurves(kids, s.p.Deadline, s.sc)
	out := make([]FrontierPoint, len(sum))
	for i, q := range sum {
		out[i] = FrontierPoint{Deadline: q.T, Cost: q.C}
	}
	return out
}
