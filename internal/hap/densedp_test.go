package hap

import (
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// treeAssignDense is the original dense-table formulation of Tree_Assign:
// X[v][0..L] tabulated per node, O(|V|·L·K) time and O(|V|·L) memory. The
// production path (treeSolver, curve.go) replaced it with the sparse
// Pareto-frontier engine; this implementation is kept verbatim, in a test
// file so production builds never carry it, as the reference oracle for the
// differential tests, which assert that the sparse engine reproduces its
// costs AND assignments bit-for-bit. It accepts the same optional per-node
// type mask as treeAssignMasked.
func treeAssignDense(p Problem, allowed [][]bool) (Solution, error) {
	g, t, L := p.Graph, p.Table, p.Deadline
	n, K := g.N(), t.K()

	candidates := make([][]fu.TypeID, n)
	for v := 0; v < n; v++ {
		if allowed != nil && allowed[v] != nil {
			for k := 0; k < K; k++ {
				if allowed[v][k] {
					candidates[v] = append(candidates[v], fu.TypeID(k))
				}
			}
			continue
		}
		candidates[v] = distinctOptions(t, v)
	}

	rev, err := g.ReverseTopoOrder()
	if err != nil {
		return Solution{}, err
	}

	// X[v][j]: DP value as documented on TreeAssign; inf marks
	// infeasibility. choice[v][j]: the type realizing X[v][j], for traceback.
	X := make([][]int64, n)
	choice := make([][]fu.TypeID, n)
	for v := 0; v < n; v++ {
		X[v] = make([]int64, L+1)
		choice[v] = make([]fu.TypeID, L+1)
	}

	for _, vid := range rev {
		v := int(vid)
		children := g.Succ(vid)
		for j := 0; j <= L; j++ {
			best := int64(inf)
			bestK := fu.TypeID(-1)
			for _, k := range candidates[v] {
				rem := j - t.Time[v][k]
				if rem < 0 {
					continue
				}
				sum := t.Cost[v][k]
				ok := true
				for _, c := range children {
					xc := X[c][rem]
					if xc == inf {
						ok = false
						break
					}
					sum += xc
				}
				if ok && sum < best {
					best = sum
					bestK = fu.TypeID(k)
				}
			}
			X[v][j] = best
			choice[v][j] = bestK
		}
	}

	var total int64
	for _, r := range g.Roots() {
		if X[r][L] == inf {
			return Solution{}, ErrInfeasible
		}
		total += X[r][L]
	}

	// Traceback: every child of v inherits the remaining budget
	// j − T_k(v); within a subtree all children share it.
	assign := make(Assignment, n)
	var walk func(v int, j int)
	walk = func(v int, j int) {
		k := choice[v][j]
		assign[v] = k
		rem := j - t.Time[v][k]
		for _, c := range g.Succ(dfg.NodeID(v)) {
			walk(int(c), rem)
		}
	}
	for _, r := range g.Roots() {
		walk(int(r), L)
	}

	sol, err := Evaluate(p, assign)
	if err != nil {
		return Solution{}, err
	}
	if sol.Cost != total {
		return Solution{}, fmt.Errorf("hap: internal error: traceback cost %d != DP value %d", sol.Cost, total)
	}
	if sol.Length > L {
		return Solution{}, fmt.Errorf("hap: internal error: Tree_Assign produced length %d > %d", sol.Length, L)
	}
	return sol, nil
}
