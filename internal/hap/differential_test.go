package hap

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsynth/internal/cptree"
	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// These tests pin the sparse Pareto-frontier engine (treesolver.go) to the
// dense table DP it replaced (densedp_test.go): on every input the two must agree
// on feasibility, optimal cost, schedule length AND the assignment itself —
// the traceback repeats the dense tie-breaking rule, so even ties must
// resolve identically.

// sameSolution fails the check when the two solvers disagree anywhere.
func sameSolution(a, b Solution) bool {
	if a.Cost != b.Cost || a.Length != b.Length || len(a.Assign) != len(b.Assign) {
		return false
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			return false
		}
	}
	return true
}

func TestSparseMatchesDenseOnRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 12, true)
		sparse, errS := treeAssignMasked(p, nil)
		dense, errD := treeAssignDense(p, nil)
		if errors.Is(errS, ErrInfeasible) != errors.Is(errD, ErrInfeasible) {
			t.Fatalf("seed %d: feasibility differs: sparse %v, dense %v", seed, errS, errD)
		}
		if errS != nil {
			continue
		}
		if errD != nil {
			t.Fatalf("seed %d: dense failed: %v", seed, errD)
		}
		if !sameSolution(sparse, dense) {
			t.Fatalf("seed %d: sparse %+v != dense %+v", seed, sparse, dense)
		}
	}
}

func TestSparseMatchesDenseAndExactOnRandomTrees(t *testing.T) {
	// Third corner of the triangle: both DPs must also hit the brute-force
	// optimum, so a shared bug in the DP recurrence cannot hide.
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		p := randomProblem(rng, 8, true)
		sparse, errS := TreeAssign(p)
		dense, errD := treeAssignDense(p, nil)
		exact, errX := BruteForce(p)
		if errors.Is(errX, ErrInfeasible) {
			if !errors.Is(errS, ErrInfeasible) || !errors.Is(errD, ErrInfeasible) {
				t.Fatalf("seed %d: brute force infeasible but sparse %v, dense %v", seed, errS, errD)
			}
			continue
		}
		if errS != nil || errD != nil || errX != nil {
			t.Fatalf("seed %d: errors sparse %v dense %v exact %v", seed, errS, errD, errX)
		}
		if sparse.Cost != exact.Cost || dense.Cost != exact.Cost {
			t.Fatalf("seed %d: costs sparse %d dense %d exact %d", seed, sparse.Cost, dense.Cost, exact.Cost)
		}
	}
}

func TestSparseMatchesDenseOnInForests(t *testing.T) {
	// In-forests run the sparse DP on the reversed orientation without
	// materializing the transpose; the reference path does materialize it.
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out := randomProblem(rng, 12, true)
		p := Problem{Graph: out.Graph.Transpose(), Table: out.Table, Deadline: out.Deadline}
		sparse, errS := TreeAssign(p)
		dense, errD := treeAssignDense(Problem{Graph: p.Graph.Transpose(), Table: p.Table, Deadline: p.Deadline}, nil)
		if errors.Is(errS, ErrInfeasible) != errors.Is(errD, ErrInfeasible) {
			t.Fatalf("seed %d: feasibility differs: sparse %v, dense %v", seed, errS, errD)
		}
		if errS != nil {
			continue
		}
		ref, err := Evaluate(p, dense.Assign)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameSolution(sparse, ref) {
			t.Fatalf("seed %d: sparse %+v != dense reference %+v", seed, sparse, ref)
		}
	}
}

func TestSparseMatchesDenseUnderMasks(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 10, true)
		allowed := make([][]bool, p.Graph.N())
		for v := range allowed {
			allowed[v] = make([]bool, p.K())
			any := false
			for k := range allowed[v] {
				allowed[v][k] = rng.Float64() < 0.6
				any = any || allowed[v][k]
			}
			if !any { // keep at least one option per node
				allowed[v][rng.Intn(p.K())] = true
			}
		}
		sparse, errS := treeAssignMasked(p, allowed)
		dense, errD := treeAssignDense(p, allowed)
		if errors.Is(errS, ErrInfeasible) != errors.Is(errD, ErrInfeasible) {
			t.Fatalf("seed %d: feasibility differs: sparse %v, dense %v", seed, errS, errD)
		}
		if errS != nil {
			continue
		}
		if !sameSolution(sparse, dense) {
			t.Fatalf("seed %d: sparse %+v != dense %+v", seed, sparse, dense)
		}
	}
}

func TestIncrementalPinMatchesFreshSolve(t *testing.T) {
	// Pinning nodes one by one on a single solver (dirty-path invalidation)
	// must match a from-scratch masked solve after every pin.
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 14, true)
		if _, err := treeAssignMasked(p, nil); err != nil {
			continue // infeasible instances have nothing to pin
		}
		solver, err := newTreeSolver(p, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		allowed := make([][]bool, p.Graph.N())
		order := rng.Perm(p.Graph.N())
		for step, vi := range order[:1+rng.Intn(len(order))] {
			v := dfg.NodeID(vi)
			k := fu.TypeID(rng.Intn(p.K()))
			solver.pin([]dfg.NodeID{v}, k)
			row := make([]bool, p.K())
			row[k] = true
			allowed[vi] = row
			inc, errI := solver.solve()
			fresh, errF := treeAssignMasked(p, allowed)
			dense, errD := treeAssignDense(p, allowed)
			if errors.Is(errI, ErrInfeasible) != errors.Is(errF, ErrInfeasible) ||
				errors.Is(errI, ErrInfeasible) != errors.Is(errD, ErrInfeasible) {
				t.Fatalf("seed %d step %d: feasibility differs: inc %v fresh %v dense %v", seed, step, errI, errF, errD)
			}
			if errI != nil {
				break // once infeasible, further pins stay infeasible
			}
			if !sameSolution(inc, fresh) || !sameSolution(inc, dense) {
				t.Fatalf("seed %d step %d: incremental %+v fresh %+v dense %+v", seed, step, inc, fresh, dense)
			}
		}
	}
}

func TestParallelSolveMatchesDense(t *testing.T) {
	// Trees above parallelMinDirty nodes take the worker-pool path on their
	// first solve; under -race this doubles as the data-race probe.
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := parallelMinDirty + 200 + rng.Intn(300)
		g := dfg.RandomTree(rng, n)
		tab := fu.RandomTable(rng, n, 3)
		min, err := MinMakespan(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Graph: g, Table: tab, Deadline: min + 1 + rng.Intn(min+2)}
		sparse, errS := TreeAssign(p)
		dense, errD := treeAssignDense(p, nil)
		if errS != nil || errD != nil {
			t.Fatalf("seed %d: sparse %v dense %v", seed, errS, errD)
		}
		if !sameSolution(sparse, dense) {
			t.Fatalf("seed %d: sparse (cost %d) != dense (cost %d)", seed, sparse.Cost, dense.Cost)
		}
	}
}

func TestAssignRepeatMatchesScratchReference(t *testing.T) {
	// AssignRepeat keeps one incrementally-invalidated solver across its
	// fixing iterations; this reference replays the same loop with a fresh
	// dense masked solve per iteration. Results must be identical.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 9, false)
		got, errG := AssignRepeat(p)
		want, errW := assignRepeatDenseReference(p)
		if errG != nil || errW != nil {
			return errors.Is(errG, ErrInfeasible) == errors.Is(errW, ErrInfeasible)
		}
		return sameSolution(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// assignRepeatDenseReference is DFG_Assign_Repeat rebuilt on the dense oracle
// with no incremental state: every re-run solves the masked tree problem from
// scratch.
func assignRepeatDenseReference(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	tree, err := cptree.ExpandBoth(p.Graph)
	if err != nil {
		return Solution{}, err
	}
	tp := Problem{Graph: tree.Graph, Table: liftTable(p.Table, tree.Orig), Deadline: p.Deadline}
	tsol, err := treeAssignDense(tp, nil)
	if err != nil {
		return Solution{}, err
	}
	allowed := make([][]bool, tree.Graph.N())
	assign := make(Assignment, p.Graph.N())
	fixed := make([]bool, p.Graph.N())
	for _, v := range tree.Duplicated() {
		k := minTimeChoice(p.Table, v, tree.Copies[v], tsol.Assign)
		assign[v] = k
		fixed[v] = true
		for _, w := range tree.Copies[v] {
			row := make([]bool, p.K())
			row[k] = true
			allowed[w] = row
		}
		if tsol, err = treeAssignDense(tp, allowed); err != nil {
			return Solution{}, err
		}
	}
	for v := range assign {
		if !fixed[v] {
			assign[v] = tsol.Assign[tree.Copies[v][0]]
		}
	}
	return Evaluate(p, assign)
}
