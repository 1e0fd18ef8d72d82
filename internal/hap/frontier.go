package hap

import (
	"errors"
	"fmt"
	"sync"
)

// FrontierPoint is one point of a cost/deadline tradeoff curve.
type FrontierPoint struct {
	Deadline int
	Cost     int64
}

// TreeFrontier computes the complete cost-versus-deadline frontier of a
// tree-shaped problem in a single dynamic-programming run: the sparse
// engine's root curve IS the frontier — its breakpoints are exactly the
// deadlines where the optimal cost strictly improves — so the frontier is
// read straight off one solve at the loosest deadline of interest, with no
// repeated solves or binary searches.
//
// The returned points are the minimal representation: deadlines where the
// optimal cost strictly improves, in increasing deadline order, starting
// at the minimum makespan. Non-tree graphs get ErrShape.
func TreeFrontier(p Problem) ([]FrontierPoint, error) {
	_, front, err := solveTreeFrontier(p, false)
	return front, err
}

// TreeAssignWithFrontier returns both the optimal solution at p.Deadline
// and the full frontier up to p.Deadline from the same single DP run — the
// curve the solve already computed costs nothing extra to expose.
func TreeAssignWithFrontier(p Problem) (Solution, []FrontierPoint, error) {
	return solveTreeFrontier(p, true)
}

// solveTreeFrontier runs the sparse tree DP once and reads the frontier off
// the root curves; when withSolution is set it also tracebacks the optimum
// at p.Deadline.
func solveTreeFrontier(p Problem, withSolution bool) (Solution, []FrontierPoint, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, nil, err
	}
	reversed := false
	switch {
	case outForestShape(p.Graph):
	case inForestShape(p.Graph):
		// Reversing every edge preserves all path lengths, so both the
		// frontier and the optimum carry over unchanged (cf. TreeAssign).
		reversed = true
	default:
		return Solution{}, nil, fmt.Errorf("%w: TreeFrontier needs a tree-shaped graph", ErrShape)
	}
	solver, err := newTreeSolver(p, nil, reversed)
	if err != nil {
		return Solution{}, nil, err
	}
	// The frontier() result copies every point out of the DP curves, so the
	// solver (and the arena its curves live in) can be recycled on return.
	defer solver.release()
	var sol Solution
	if withSolution {
		sol, err = solver.solve()
		if err != nil {
			return Solution{}, nil, err
		}
	} else {
		solver.recompute()
	}
	front := solver.frontier()
	if len(front) == 0 {
		return Solution{}, nil, ErrInfeasible
	}
	return sol, front, nil
}

// ErrBeyondHorizon reports that a FrontierSolver was asked about a deadline
// past the horizon its curves were computed for, and the curve is truncated
// there (the unconstrained minimum has not been reached), so answering would
// require a wider solve.
var ErrBeyondHorizon = errors.New("hap: deadline beyond the frontier solver's horizon")

// FrontierSolver is a reusable tree solver for serving layers that answer
// many deadlines on one (graph, table) instance: it runs the sparse DP once
// at construction and afterwards answers any deadline up to its horizon by a
// pure traceback over the stored curves — no DP recomputation. The returned
// solution is traced at the operative frontier breakpoint rather than at the
// requested deadline, so its Length never exceeds the breakpoint and the
// same solution is optimal for every deadline in the breakpoint's bracket.
//
// The zero value is not usable; build one with NewFrontierSolver. Methods
// are safe for concurrent use.
type FrontierSolver struct {
	mu      sync.Mutex
	s       *treeSolver
	front   []FrontierPoint
	horizon int
	minCost int64 // unconstrained minimum (every node its cheapest type)
}

// NewFrontierSolver solves a tree-shaped problem once at p.Deadline (the
// horizon) and keeps the DP curves for later tracebacks. Non-tree graphs get
// ErrShape. An instance that is infeasible even at the horizon is still
// returned: its Frontier is empty and SolveAt answers ErrInfeasible for
// every deadline up to the horizon.
func NewFrontierSolver(p Problem) (*FrontierSolver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	reversed := false
	switch {
	case outForestShape(p.Graph):
	case inForestShape(p.Graph):
		reversed = true
	default:
		return nil, fmt.Errorf("%w: FrontierSolver needs a tree-shaped graph", ErrShape)
	}
	solver, err := newTreeSolver(p, nil, reversed)
	if err != nil {
		return nil, err
	}
	solver.recompute()
	front := solver.frontier()
	// Later calls only traceback, so the curves move into one exact-size
	// block and the build arenas go back to the pool for the next build.
	solver.seal()
	var minCost int64
	for v := 0; v < p.Graph.N(); v++ {
		minCost += p.Table.Cost[v][p.Table.MinCostType(v)]
	}
	return &FrontierSolver{
		s:       solver,
		front:   front,
		horizon: p.Deadline,
		minCost: minCost,
	}, nil
}

// Frontier returns a copy of the cost-versus-deadline curve up to the
// horizon: the deadlines where the optimal cost strictly improves, in
// increasing order. Empty means infeasible everywhere up to the horizon.
func (f *FrontierSolver) Frontier() []FrontierPoint {
	return append([]FrontierPoint(nil), f.front...)
}

// Horizon is the deadline the curves were computed for; SolveAt answers any
// deadline up to it (and past it too once the curve is Complete).
func (f *FrontierSolver) Horizon() int { return f.horizon }

// Complete reports that the curve has reached the unconstrained minimum
// cost, so the last breakpoint is optimal for every deadline beyond the
// horizon as well and the solver will never need widening.
func (f *FrontierSolver) Complete() bool {
	return len(f.front) > 0 && f.front[len(f.front)-1].Cost == f.minCost
}

// Cover returns the operative frontier breakpoint for deadline L: the last
// breakpoint at or before L. ok is false when L is infeasible (below the
// first breakpoint) or beyond the horizon of a still-truncated curve.
func (f *FrontierSolver) Cover(L int) (FrontierPoint, bool) {
	if len(f.front) == 0 || L < f.front[0].Deadline {
		return FrontierPoint{}, false
	}
	if L > f.horizon && !f.Complete() {
		return FrontierPoint{}, false
	}
	i := len(f.front) - 1
	for i > 0 && f.front[i].Deadline > L {
		i--
	}
	if f.front[i].Deadline > L {
		return FrontierPoint{}, false
	}
	return f.front[i], true
}

// SolveAt recovers the optimal solution for deadline L from the stored
// curves. It returns ErrInfeasible when L is below the first breakpoint and
// ErrBeyondHorizon when L exceeds the horizon of a still-truncated curve
// (the caller should re-solve wider and build a fresh FrontierSolver).
func (f *FrontierSolver) SolveAt(L int) (Solution, error) {
	if L < 1 {
		return Solution{}, fmt.Errorf("hap: non-positive deadline %d", L)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	bp, ok := f.Cover(L)
	if !ok {
		if L > f.horizon && !f.Complete() {
			return Solution{}, ErrBeyondHorizon
		}
		return Solution{}, ErrInfeasible
	}
	// Trace at the breakpoint, not at L: the solution then has Length <=
	// bp.Deadline, making it valid (and optimal) for the whole bracket.
	return f.s.solveAt(bp.Deadline)
}
