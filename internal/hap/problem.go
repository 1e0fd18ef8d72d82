// Package hap implements the heterogeneous assignment problem (HAP) — the
// core contribution of the paper — and all of its solvers:
//
//   - PathAssign: optimal on simple paths (Algorithm Path_Assign, §5.1)
//   - TreeAssign: optimal on trees/out-forests (Algorithm Tree_Assign, §5.2)
//   - AssignOnce: heuristic on general DFGs (Algorithm DFG_Assign_Once, §5.3)
//   - AssignRepeat: heuristic on general DFGs (Algorithm DFG_Assign_Repeat, §5.3)
//   - Greedy: the baseline of Chang–Wang–Parhi the paper compares against
//   - Exact: branch-and-bound optimum (the ILP surrogate), for small graphs
//
// The problem: given a DFG whose node v runs in Time[v][k] control steps at
// cost Cost[v][k] on FU type k, find the type assignment minimizing total
// cost such that every root-to-leaf path of the DAG portion finishes within
// the timing constraint. The problem is NP-complete in general (see package
// knapsack for the reduction), pseudo-polynomial on paths and trees.
package hap

import (
	"errors"
	"fmt"
	"math"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// Problem is one HAP instance.
type Problem struct {
	Graph    *dfg.Graph
	Table    *fu.Table // per-(node, type) times and costs
	Deadline int       // timing constraint L, in control steps
}

// Validate checks that the instance is well-formed: acyclic DAG portion,
// rectangular positive-time table covering every node, positive deadline.
func (p Problem) Validate() error {
	if p.Graph == nil || p.Table == nil {
		return errors.New("hap: nil graph or table")
	}
	if p.Graph.N() == 0 {
		return errors.New("hap: empty graph")
	}
	if err := p.Graph.Validate(); err != nil {
		return err
	}
	if err := p.Table.Validate(); err != nil {
		return err
	}
	if p.Table.N() != p.Graph.N() {
		return fmt.Errorf("hap: table covers %d nodes, graph has %d", p.Table.N(), p.Graph.N())
	}
	if p.Deadline < 1 {
		return fmt.Errorf("hap: non-positive deadline %d", p.Deadline)
	}
	return nil
}

// K is the number of FU types of the instance.
func (p Problem) K() int { return p.Table.K() }

// Assignment maps each node (by ID) to an FU type.
type Assignment []fu.TypeID

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	copy(c, a)
	return c
}

// Solution is the result of a solver run.
type Solution struct {
	Assign Assignment
	Cost   int64 // total system cost under Assign
	Length int   // longest-path execution time under Assign
}

// ErrInfeasible is returned when no assignment meets the timing constraint,
// i.e. the deadline is below the graph's minimum makespan.
var ErrInfeasible = errors.New("hap: no assignment satisfies the timing constraint")

// ErrShape is returned when a shape-restricted solver receives a graph of
// the wrong shape (PathAssign on a non-path, TreeAssign on a non-forest).
var ErrShape = errors.New("hap: graph shape not supported by this solver")

const inf = math.MaxInt64

// Times projects the per-node execution times chosen by a.
func Times(t *fu.Table, a Assignment) []int {
	w := make([]int, len(a))
	for v, k := range a {
		w[v] = t.Time[v][k]
	}
	return w
}

// CostOf sums the execution costs chosen by a.
func CostOf(t *fu.Table, a Assignment) int64 {
	var c int64
	for v, k := range a {
		c += t.Cost[v][k]
	}
	return c
}

// Evaluate computes the system cost and schedule-length (longest-path time)
// of an assignment, verifying it is complete and in range. It runs one
// longest-path pass — O(|V|+|E|) — and performs no search, so it is exact
// for the given assignment but makes no optimality claim about it.
func Evaluate(p Problem, a Assignment) (Solution, error) {
	if len(a) != p.Graph.N() {
		return Solution{}, fmt.Errorf("hap: assignment covers %d nodes, graph has %d", len(a), p.Graph.N())
	}
	for v, k := range a {
		if k < 0 || int(k) >= p.K() {
			return Solution{}, fmt.Errorf("hap: node %d assigned invalid type %d", v, k)
		}
	}
	length, err := p.Graph.LongestPathLength(Times(p.Table, a), nil)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Assign: a, Cost: CostOf(p.Table, a), Length: length}, nil
}

// Feasible reports whether a meets the timing constraint.
func Feasible(p Problem, a Assignment) bool {
	s, err := Evaluate(p, a)
	return err == nil && s.Length <= p.Deadline
}

// MinMakespan returns the smallest achievable schedule length: the longest
// path when every node uses its fastest type. It is the tightest deadline
// for which the instance is feasible, and the first timing constraint used
// in the paper's experiments.
func MinMakespan(g *dfg.Graph, t *fu.Table) (int, error) {
	w := make([]int, g.N())
	for v := range w {
		w[v] = t.MinTime(v)
	}
	return g.LongestPathLength(w, nil)
}

// minCostAssignment assigns every node its cheapest type — the optimum when
// the deadline is unconstrained and the greedy baseline's starting point.
func minCostAssignment(t *fu.Table) Assignment {
	a := make(Assignment, t.N())
	for v := range a {
		a[v] = t.MinCostType(v)
	}
	return a
}

// minTimeAssignment assigns every node its fastest type.
func minTimeAssignment(t *fu.Table) Assignment {
	a := make(Assignment, t.N())
	for v := range a {
		a[v] = t.MinTimeType(v)
	}
	return a
}
