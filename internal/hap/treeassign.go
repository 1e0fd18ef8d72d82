package hap

import (
	"fmt"

	"hetsynth/internal/dfg"
)

// TreeAssign solves HAP optimally when the DAG portion of the graph is an
// out-forest (every node has at most one parent). This is Algorithm
// Tree_Assign of the paper, generalized to forests: the paper's pseudo root
// node (zero time and cost for every type) that joins multiple roots is
// equivalent to summing the per-root optima, which is what we do directly.
//
// Dynamic program, children before parents:
//
//	X_v[j] = minimum cost of the subtree rooted at v such that the longest
//	         execution-time path from v to any leaf is at most j
//	       = min over types k with T_k(v) <= j of
//	         C_k(v) + sum over children c of X_c[j - T_k(v)]
//
// The per-child minima are independent because distinct root-to-leaf paths
// of a tree share only ancestors, which are accounted at v and above; this
// independence is exactly what fails on general DFGs and why HAP on DAGs is
// NP-complete while trees admit a pseudo-polynomial optimum.
//
// The engine stores each X_v sparsely, as the breakpoints of the
// non-increasing step function j ↦ X_v[j] (see curve.go), so per-node work
// is O(B_children + K·B_v + W_v) in the breakpoint counts B and the node's
// time span W_v — with a cursor-merge fallback when W_v dwarfs B — instead
// of the dense table's O(L·K), and memory is the total frontier size instead
// of O(|V|·L). Costs and assignments are identical to the dense formulation,
// which the differential tests keep as their oracle (treeAssignDense, in
// densedp_test.go). Forests with at least parallelMinDirty nodes are
// evaluated by a worker pool over independent sibling subtrees.
//
// TreeAssign returns ErrShape on non-forests and ErrInfeasible when even
// all-fastest types miss the deadline.
// In-forests (fan-in computation trees, the usual shape of filter DFGs) are
// handled by solving on the transpose: reversing every edge preserves the
// length of every path and the per-node choices, so the optimum carries over
// unchanged.
func TreeAssign(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	switch {
	case outForestShape(p.Graph):
		return treeAssignMasked(p, nil)
	case inForestShape(p.Graph):
		// Solved on the edge-reversed orientation in place (see
		// newTreeSolver): path lengths and per-node choices are preserved,
		// so the solution needs no translation back.
		s, err := newTreeSolver(p, nil, true)
		if err != nil {
			return Solution{}, err
		}
		defer s.release()
		return s.solve()
	default:
		return Solution{}, fmt.Errorf("%w: Tree_Assign needs an out-forest or in-forest", ErrShape)
	}
}

// outForestShape / inForestShape are Graph.IsOutForest / IsInForest minus
// the acyclicity re-check: the callers here have already run
// Problem.Validate, which proved the DAG portion acyclic, so only the
// degree conditions remain to be tested.
func outForestShape(g *dfg.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.InDegree(dfg.NodeID(v)) > 1 {
			return false
		}
	}
	return true
}

func inForestShape(g *dfg.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(dfg.NodeID(v)) > 1 {
			return false
		}
	}
	return true
}

// treeAssignMasked is TreeAssign with an optional per-node type mask:
// allowed[v][k] == false forbids assigning type k to node v. A nil mask (or
// nil row) allows everything. It is a one-shot convenience over treeSolver,
// which DFG_Assign_Repeat uses directly to re-solve incrementally after
// pinning duplicated nodes.
func treeAssignMasked(p Problem, allowed [][]bool) (Solution, error) {
	s, err := newTreeSolver(p, allowed, false)
	if err != nil {
		return Solution{}, err
	}
	defer s.release()
	return s.solve()
}
