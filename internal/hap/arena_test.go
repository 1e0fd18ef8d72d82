package hap

import (
	"errors"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// These tests pin the flat-arena curve storage (arena.go) and its
// incremental bookkeeping to independent references. Every retained curve
// must equal the curve a plain per-node recomputation builds, and every
// solve must equal a fresh solve of the same (pinned) problem and the dense
// table DP — including across incremental re-solves that abandon arena
// ranges, across forced compaction, on the parallel worker path and after
// sealing.

// referenceCurves recomputes every node's curve from scratch, children
// before parents, into one plain slice per node: the per-node layout the
// arenas replaced, built with the same kernels but none of the arena
// bookkeeping.
func referenceCurves(s *treeSolver) []curve {
	ref := make([]curve, len(s.order))
	sc := new(dpScratch)
	for _, v := range s.order {
		ref[v] = append(curve(nil), s.computeCurve(int(v), sc, ref)...)
	}
	return ref
}

// sameCurves compares every retained per-node curve of s point by point
// against ref.
func sameCurves(t *testing.T, seed int64, s *treeSolver, ref []curve) {
	t.Helper()
	for v := range s.order {
		got, want := s.curveOf(dfg.NodeID(v)), ref[v]
		if len(got) != len(want) {
			t.Fatalf("seed %d: node %d: arena curve has %d points, reference %d", seed, v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: node %d point %d: arena %+v != reference %+v", seed, v, i, got[i], want[i])
			}
		}
	}
}

// runArenaTrajectory drives one solver through a solve-pin-resolve
// trajectory and checks every step against a fresh solver built with the
// accumulated pins as a type mask, against the dense DP under the same mask,
// and against reference curves.
func runArenaTrajectory(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := randomProblem(rng, 14, true)
	s, err := newTreeSolver(p, nil, false)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	defer s.release()
	allowed := make([][]bool, p.Graph.N())
	step := func(stage string) bool {
		got, errA := s.solve()
		fresh, err := newTreeSolver(p, allowed, false)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, stage, err)
		}
		defer fresh.release()
		want, errF := fresh.solve()
		dense, errD := treeAssignDense(p, allowed)
		if errors.Is(errA, ErrInfeasible) != errors.Is(errF, ErrInfeasible) ||
			errors.Is(errA, ErrInfeasible) != errors.Is(errD, ErrInfeasible) {
			t.Fatalf("seed %d %s: feasibility differs: arena %v, fresh %v, dense %v", seed, stage, errA, errF, errD)
		}
		sameCurves(t, seed, s, referenceCurves(s))
		if errA != nil {
			return false
		}
		if errF != nil || errD != nil {
			t.Fatalf("seed %d %s: fresh %v, dense %v", seed, stage, errF, errD)
		}
		if !sameSolution(got, want) || !sameSolution(got, dense) {
			t.Fatalf("seed %d %s: arena %+v, fresh %+v, dense %+v", seed, stage, got, want, dense)
		}
		fa, ff := s.frontier(), fresh.frontier()
		if len(fa) != len(ff) {
			t.Fatalf("seed %d %s: frontier sizes %d != %d", seed, stage, len(fa), len(ff))
		}
		for i := range fa {
			if fa[i] != ff[i] {
				t.Fatalf("seed %d %s: frontier[%d] arena %+v != fresh %+v", seed, stage, i, fa[i], ff[i])
			}
		}
		return true
	}
	if !step("initial") {
		return
	}
	// Incremental pins abandon the pinned nodes' old arena ranges; the fresh
	// ranges must still read back identically to a from-scratch solve.
	for pinStep := 0; pinStep < 4; pinStep++ {
		v := dfg.NodeID(rng.Intn(p.Graph.N()))
		k := fu.TypeID(rng.Intn(p.K()))
		s.pin([]dfg.NodeID{v}, k)
		allowed[v] = make([]bool, p.K())
		allowed[v][k] = true
		if !step("pin") {
			return
		}
	}
}

func TestArenaMatchesFreshSolves(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runArenaTrajectory(t, seed)
	}
}

func TestArenaCompactionMatchesFreshSolves(t *testing.T) {
	// Shrinking the arena bound forces storeCurve through compactArena (and,
	// when a compacted arena still cannot take the curve, through the
	// open-a-fresh-arena fallback) on ordinary small instances. The serial
	// incremental trajectory is the one that accumulates abandoned ranges.
	old := maxArenaPoints
	maxArenaPoints = 12
	defer func() { maxArenaPoints = old }()
	for seed := int64(0); seed < 120; seed++ {
		runArenaTrajectory(t, 5000+seed)
	}
}

// parallelProblem is a random tree large enough for the worker-pool path.
func parallelProblem(t *testing.T, seed int64) Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := parallelMinDirty + 100 + rng.Intn(200)
	g := dfg.RandomTree(rng, n)
	tab := fu.RandomTable(rng, n, 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	return Problem{Graph: g, Table: tab, Deadline: min + 1 + rng.Intn(min+2)}
}

func TestArenaParallelMatchesSerialCurves(t *testing.T) {
	// Above parallelMinDirty the first solve takes the worker-pool path with
	// one private arena per worker; under -race this doubles as the probe for
	// the arena handoff (ptmp) being properly ordered.
	forceProcs(t, 4)
	for seed := int64(0); seed < 2; seed++ {
		p := parallelProblem(t, seed)
		s, err := newTreeSolver(p, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		defer s.release()
		got, err := s.solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.arenas) < 2 {
			t.Fatalf("seed %d: solve used %d arena(s); the worker-pool path did not run", seed, len(s.arenas))
		}
		dense, err := treeAssignDense(p, nil)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		if !sameSolution(got, dense) {
			t.Fatalf("seed %d: arena %+v != dense %+v", seed, got, dense)
		}
		sameCurves(t, seed, s, referenceCurves(s))
	}
}

func TestSealKeepsCurvesInOneExactBlock(t *testing.T) {
	// Sealing collects the serial and per-worker arenas into one block of
	// exactly Σ|curve| points; the curves and every traceback must survive.
	forceProcs(t, 4)
	for seed := int64(0); seed < 3; seed++ {
		var p Problem
		if seed == 0 {
			p = parallelProblem(t, 100)
		} else {
			p = randomProblem(rand.New(rand.NewSource(seed)), 14, true)
		}
		s, err := newTreeSolver(p, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		s.recompute()
		ref := referenceCurves(s)
		before := make([]Solution, p.Deadline+1)
		for L := 0; L <= p.Deadline; L++ {
			before[L], _ = s.solveAt(L)
		}
		s.seal()
		total := 0
		for _, c := range ref {
			total += len(c)
		}
		if len(s.arenas) != 1 || len(s.arenas[0].pts) != total || cap(s.arenas[0].pts) != total {
			t.Fatalf("seed %d: sealed into %d arena(s), want one of exactly %d points", seed, len(s.arenas), total)
		}
		if s.sc != nil || s.ptmp != nil {
			t.Fatalf("seed %d: sealed solver still holds its build scratch", seed)
		}
		sameCurves(t, seed, s, ref)
		for L := 0; L <= p.Deadline; L++ {
			sol, _ := s.solveAt(L)
			if !sameSolution(sol, before[L]) {
				t.Fatalf("seed %d L=%d: sealed %+v != unsealed %+v", seed, L, sol, before[L])
			}
		}
	}
}

func TestTreeSolveArenaAllocs(t *testing.T) {
	// With pooled arenas and scratch, a full build-solve-release cycle costs
	// only the solver's own structural allocations — far below the one curve
	// allocation per node the slice layout paid. The bound is deliberately
	// much smaller than n so a regression to per-node allocation fails loudly.
	if raceEnabled {
		t.Skip("allocation counts include race instrumentation")
	}
	rng := rand.New(rand.NewSource(7))
	n := 300
	g := dfg.RandomTree(rng, n)
	tab := fu.RandomTable(rng, n, 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	p := Problem{Graph: g, Table: tab, Deadline: min + min/2 + 1}
	solveOnce := func() {
		s, err := newTreeSolver(p, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.solve(); err != nil {
			t.Fatal(err)
		}
		s.release()
	}
	solveOnce() // warm the arena and scratch pools
	allocs := testing.AllocsPerRun(50, solveOnce)
	if allocs > 40 {
		t.Fatalf("tree solve allocated %.1f times per run, want <= 40 (n = %d)", allocs, n)
	}
}
