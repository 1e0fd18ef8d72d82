package hap

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

func TestTreeFrontierOnPath(t *testing.T) {
	p := pathProblem()
	p.Deadline = 13 // the all-slowest makespan
	front, err := TreeFrontier(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("frontier too small: %+v", front)
	}
	if front[0].Deadline != 4 { // minimum makespan of pathProblem
		t.Fatalf("first point at %d, want 4", front[0].Deadline)
	}
	if front[0].Cost != 10+9+8 {
		t.Fatalf("tightest cost %d, want 27", front[0].Cost)
	}
	lastCost := front[len(front)-1].Cost
	if lastCost != 2+1+2 {
		t.Fatalf("loosest cost %d, want 5", lastCost)
	}
	// Strictly decreasing costs at strictly increasing deadlines.
	for i := 1; i < len(front); i++ {
		if front[i].Deadline <= front[i-1].Deadline || front[i].Cost >= front[i-1].Cost {
			t.Fatalf("frontier not strictly monotone: %+v", front)
		}
	}
}

func TestTreeFrontierMatchesPointwiseSolves(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.RandomTree(rng, 2+rng.Intn(8))
		tab := fu.RandomTable(rng, g.N(), 2+rng.Intn(2))
		min, _ := MinMakespan(g, tab)
		p := Problem{Graph: g, Table: tab, Deadline: min + 1 + rng.Intn(2*min+2)}
		front, err := TreeFrontier(p)
		if err != nil {
			return false
		}
		// Every deadline's optimum must equal the frontier's step function.
		stepCost := func(L int) int64 {
			best := front[0].Cost
			for _, pt := range front {
				if pt.Deadline <= L {
					best = pt.Cost
				}
			}
			return best
		}
		for L := min; L <= p.Deadline; L++ {
			s, err := TreeAssign(Problem{Graph: g, Table: tab, Deadline: L})
			if err != nil {
				return false
			}
			if s.Cost != stepCost(L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeFrontierRejectsNonTreesAndInfeasible(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode("a", "")
	b := g.MustAddNode("b", "")
	c := g.MustAddNode("c", "")
	d := g.MustAddNode("d", "")
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(a, c, 0)
	g.MustAddEdge(b, d, 0)
	g.MustAddEdge(c, d, 0)
	p := Problem{Graph: g, Table: fu.UniformTable(4, []int{1, 2}, []int64{5, 1}), Deadline: 9}
	if _, err := TreeFrontier(p); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	pp := pathProblem()
	pp.Deadline = 3
	if _, err := TreeFrontier(pp); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestTreeAssignWithFrontierAgreesWithSeparateCalls(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.RandomTree(rng, 2+rng.Intn(10))
		if rng.Intn(2) == 1 {
			g = g.Transpose() // exercise the in-forest orientation too
		}
		tab := fu.RandomTable(rng, g.N(), 2+rng.Intn(2))
		min, _ := MinMakespan(g, tab)
		p := Problem{Graph: g, Table: tab, Deadline: min + rng.Intn(2*min+3)}
		sol, front, err := TreeAssignWithFrontier(p)
		sol2, err2 := TreeAssign(p)
		front2, err3 := TreeFrontier(p)
		if err != nil || err2 != nil || err3 != nil {
			return errors.Is(err, ErrInfeasible) &&
				errors.Is(err2, ErrInfeasible) && errors.Is(err3, ErrInfeasible)
		}
		if sol.Cost != sol2.Cost || sol.Length != sol2.Length {
			return false
		}
		if len(front) != len(front2) {
			return false
		}
		for i := range front {
			if front[i] != front2[i] {
				return false
			}
		}
		// The loosest frontier point is the cost of the returned optimum.
		return front[len(front)-1].Cost == sol.Cost
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// wideProblem is (g, tab) at the horizon a serving layer builds its
// FrontierSolver for: the longest path with every node at its slowest type,
// beyond which every assignment is feasible.
func wideProblem(tb testing.TB, g *dfg.Graph, tab *fu.Table) Problem {
	tb.Helper()
	wmax := make([]int, g.N())
	for v := range wmax {
		wmax[v] = tab.MaxTime(v)
	}
	horizon, _, err := g.LongestPath(wmax)
	if err != nil {
		tb.Fatal(err)
	}
	return Problem{Graph: g, Table: tab, Deadline: horizon}
}

func TestFrontierSolverHugeTimesStayOffTheWindow(t *testing.T) {
	// A 2047-node tree whose table times are ~1e7: every merge spans far more
	// time slots than it has breakpoints, so the dense-window guard must send
	// it to the cursor merges. Scaling every time by S scales the frontier's
	// deadlines by S and changes nothing else, so the solver must reproduce
	// the unit-scale tree (which runs on the window) and fresh solves, within
	// a fixed allocation budget — a window sized to the time span would need
	// gigabytes.
	if raceEnabled {
		t.Skip("allocation sizes include race instrumentation")
	}
	const n, K, scale = 2047, 3, 1_000_000
	rng := rand.New(rand.NewSource(11))
	g := dfg.RandomTree(rng, n)
	small := fu.RandomTable(rng, n, K)
	big := fu.NewTable(n, K)
	for v := 0; v < n; v++ {
		for k := 0; k < K; k++ {
			big.Time[v][k] = small.Time[v][k] * scale
			big.Cost[v][k] = small.Cost[v][k]
		}
	}
	fsSmall, err := NewFrontierSolver(wideProblem(t, g, small))
	if err != nil {
		t.Fatal(err)
	}
	pb := wideProblem(t, g, big)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fsBig, err := NewFrontierSolver(pb)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8 << 20 // ~10x a measured build; one 1M-slot window is 8 MiB
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("building the huge-time solver allocated %d bytes, budget %d", got, budget)
	}
	fs, fb := fsSmall.Frontier(), fsBig.Frontier()
	if len(fs) < 2 || len(fs) != len(fb) || !fsBig.Complete() {
		t.Fatalf("frontier sizes %d (unit) vs %d (scaled), complete %v", len(fs), len(fb), fsBig.Complete())
	}
	for i := range fs {
		if fb[i].Deadline != fs[i].Deadline*scale || fb[i].Cost != fs[i].Cost {
			t.Fatalf("frontier[%d]: scaled %+v, unit %+v", i, fb[i], fs[i])
		}
	}
	for _, L := range []int{fs[0].Deadline, (fs[0].Deadline + fs[len(fs)-1].Deadline) / 2, fs[len(fs)-1].Deadline} {
		pin := pb
		pin.Deadline = L * scale
		fresh, err := TreeAssign(pin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fsBig.SolveAt(L * scale)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := fsSmall.SolveAt(L)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != fresh.Cost || got.Cost != unit.Cost || got.Length != unit.Length*scale {
			t.Fatalf("L=%d: sealed %d/%d, fresh %d/%d, unit %d/%d (cost/length)", L, got.Cost, got.Length, fresh.Cost, fresh.Length, unit.Cost, unit.Length)
		}
		for v := range got.Assign {
			if got.Assign[v] != unit.Assign[v] {
				t.Fatalf("L=%d node %d: scaled type %d, unit type %d", L, v, got.Assign[v], unit.Assign[v])
			}
		}
	}
}
