package hap

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// hardInstance builds a problem whose exact search is large enough to be
// cancelled mid-flight: a wide shallow DAG with many distinct type options
// and a deadline loose enough that the time bound prunes little.
func hardInstance(n int) Problem {
	rng := rand.New(rand.NewSource(7))
	g := dfg.RandomDAG(rng, n, 0.08)
	t := fu.RandomTable(rng, n, 4)
	p := Problem{Graph: g, Table: t}
	min, _ := MinMakespan(g, t)
	p.Deadline = 3 * min
	return p
}

// cancelSize is the hardInstance size the cancellation tests use. At 34
// nodes the exact search runs for seconds before it exhausts its budget, so
// a cancel a few milliseconds in always lands mid-search; smaller instances
// (26 nodes solves in about 2ms) can finish before the context fires.
const cancelSize = 34

func TestSolveCtxCancelledBeforeStart(t *testing.T) {
	p := hardInstance(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgoAuto, AlgoRepeat, AlgoExact} {
		if _, err := SolveCtx(ctx, p, algo); !errors.Is(err, context.Canceled) {
			t.Errorf("SolveCtx(%v) on cancelled ctx: err = %v, want context.Canceled", algo, err)
		}
	}
}

func TestExactCtxCancellationUnwinds(t *testing.T) {
	p := hardInstance(cancelSize)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ExactCtx(ctx, p, ExactOptions{})
	if err == nil {
		t.Skip("instance solved before the deadline; nothing to cancel")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrSearchTooLarge) {
		t.Fatalf("err = %v, want deadline exceeded (or budget)", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt unwind", d)
	}
}

func TestExactParallelCtxCancellationStopsWorkers(t *testing.T) {
	p := hardInstance(cancelSize)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ExactParallelCtx(ctx, p, ExactOptions{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// The search may legitimately finish (fast machine) or exhaust the
		// budget before the cancel lands; only a cancelled run must report
		// the context's error.
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrSearchTooLarge) {
			t.Fatalf("err = %v, want context.Canceled, budget, or nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExactParallelCtx did not return after cancellation")
	}
	// All workers must have been joined: the goroutine count settles back to
	// (about) the baseline. Retry to ride out unrelated runtime goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestExactParallelCtxMatchesExactWhenUncancelled(t *testing.T) {
	p := hardInstance(14)
	want, err := Exact(p, ExactOptions{})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	got, err := ExactParallelCtx(context.Background(), p, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactParallelCtx: %v", err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("cost mismatch: parallel %d, serial %d", got.Cost, want.Cost)
	}
}

func TestAssignRepeatCtxCancelBetweenIterations(t *testing.T) {
	// The elliptic benchmark has duplicated nodes, so Repeat runs several
	// fixing iterations; a pre-cancelled context must stop it immediately.
	p := hardInstance(40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AssignRepeatCtx(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And an unconstrained run still matches the plain entry point.
	want, err := AssignRepeat(p)
	if err != nil {
		t.Fatalf("AssignRepeat: %v", err)
	}
	got, err := AssignRepeatCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("AssignRepeatCtx: %v", err)
	}
	if got.Cost != want.Cost || got.Length != want.Length {
		t.Fatalf("ctx variant diverged: got (%d,%d), want (%d,%d)", got.Cost, got.Length, want.Cost, want.Length)
	}
}

func TestFrontierSolverServesAllDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := dfg.RandomTree(rng, 60)
	tab := fu.RandomTable(rng, 60, 3)
	min, err := MinMakespan(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 3 * min
	fs, err := NewFrontierSolver(Problem{Graph: g, Table: tab, Deadline: horizon})
	if err != nil {
		t.Fatalf("NewFrontierSolver: %v", err)
	}
	front := fs.Frontier()
	if len(front) == 0 {
		t.Fatal("empty frontier on a feasible instance")
	}
	if front[0].Deadline != min {
		t.Errorf("first breakpoint at %d, want min makespan %d", front[0].Deadline, min)
	}
	for L := min - 2; L <= horizon; L++ {
		want, werr := TreeAssign(Problem{Graph: g, Table: tab, Deadline: L})
		got, gerr := fs.SolveAt(L)
		if werr != nil {
			if !errors.Is(gerr, ErrInfeasible) {
				t.Fatalf("L=%d: SolveAt err = %v, want ErrInfeasible", L, gerr)
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("L=%d: SolveAt: %v", L, gerr)
		}
		if got.Cost != want.Cost {
			t.Fatalf("L=%d: SolveAt cost %d, TreeAssign cost %d", L, got.Cost, want.Cost)
		}
		if got.Length > L {
			t.Fatalf("L=%d: SolveAt length %d exceeds deadline", L, got.Length)
		}
		if s, err := Evaluate(Problem{Graph: g, Table: tab, Deadline: L}, got.Assign); err != nil || s.Cost != got.Cost || s.Length != got.Length {
			t.Fatalf("L=%d: SolveAt solution does not evaluate to itself: %v %+v", L, err, s)
		}
	}
	if fs.Complete() {
		// Past-horizon deadlines must reuse the final bracket.
		got, err := fs.SolveAt(horizon + 100)
		if err != nil {
			t.Fatalf("SolveAt beyond horizon on complete curve: %v", err)
		}
		if got.Cost != front[len(front)-1].Cost {
			t.Fatalf("beyond-horizon cost %d, want %d", got.Cost, front[len(front)-1].Cost)
		}
	} else {
		if _, err := fs.SolveAt(horizon + 100); !errors.Is(err, ErrBeyondHorizon) {
			t.Fatalf("SolveAt beyond truncated horizon: err = %v, want ErrBeyondHorizon", err)
		}
	}
}

func TestFrontierSolverInForest(t *testing.T) {
	// An in-forest (reversed tree) exercises the reversed-orientation path.
	g := dfg.New()
	a := g.MustAddNode("a", "mul")
	b := g.MustAddNode("b", "add")
	c := g.MustAddNode("c", "add")
	g.MustAddEdge(a, c, 0)
	g.MustAddEdge(b, c, 0)
	tab := fu.UniformTable(3, []int{1, 2, 4}, []int64{10, 5, 1})
	fs, err := NewFrontierSolver(Problem{Graph: g, Table: tab, Deadline: 8})
	if err != nil {
		t.Fatalf("NewFrontierSolver: %v", err)
	}
	for L := 2; L <= 8; L++ {
		want, werr := TreeAssign(Problem{Graph: g, Table: tab, Deadline: L})
		got, gerr := fs.SolveAt(L)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("L=%d: err mismatch %v vs %v", L, werr, gerr)
		}
		if werr == nil && got.Cost != want.Cost {
			t.Fatalf("L=%d: cost %d, want %d", L, got.Cost, want.Cost)
		}
	}
}
