package hap

import (
	"context"
	"math"
	"math/rand"

	"hetsynth/internal/fu"
)

// AnnealOptions tunes the simulated-annealing solver.
type AnnealOptions struct {
	Seed  int64   // RNG seed; runs are deterministic per seed
	Moves int     // total proposed moves (default 20000)
	T0    float64 // initial temperature (default: cost spread estimate)
	Alpha float64 // geometric cooling factor per move (default 0.9995)
	// ReheatAfter, when positive, resets the temperature to its initial
	// value after that many consecutive moves without improving the feasible
	// incumbent — a restart that lets a frozen walk escape deep local minima
	// late in the cooling schedule. Zero disables reheating.
	ReheatAfter int
}

// Anneal is a randomized assignment solver used by the extended ablations:
// simulated annealing over type vectors with single-node moves. Infeasible
// states are allowed during the walk but charged a penalty proportional to
// the deadline violation, so the search can tunnel through tight regions;
// only feasible states are ever recorded as the incumbent.
//
// It is not part of the paper; it exists to show where the structured
// heuristics (Once/Repeat) sit relative to a generic metaheuristic given
// comparable effort.
func Anneal(p Problem, opts AnnealOptions) (Solution, error) {
	return AnnealCtx(context.Background(), p, opts)
}

// AnnealCtx is Anneal — the simulated-annealing metaheuristic over type
// vectors — with cooperative cancellation: the move loop polls ctx every 256
// moves. A cancelled run returns the best feasible incumbent found so far
// (when one exists) together with ctx's error, so anytime callers can keep
// the partial result; check Solution.Assign != nil before using it. The
// RNG stream is unaffected by polling, so per-seed determinism of full runs
// is preserved.
func AnnealCtx(ctx context.Context, p Problem, opts AnnealOptions) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	moves := opts.Moves
	if moves <= 0 {
		moves = 20000
	}
	alpha := opts.Alpha
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.9995
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	t := p.Table
	n, K := p.Graph.N(), t.K()

	// Penalized energy: cost + λ·max(0, length − L). λ is the largest
	// single-node cost, making one step of lateness never cheaper than the
	// most expensive upgrade.
	var lambda int64 = 1
	for v := 0; v < n; v++ {
		for k := 0; k < K; k++ {
			if t.Cost[v][k] > lambda {
				lambda = t.Cost[v][k]
			}
		}
	}
	// times and dist are the energy function's scratch: one longest-path
	// pass per move, no allocation.
	times, dist := make([]int, n), make([]int, n)
	energy := func(a Assignment) (float64, int64, int) {
		cost := CostOf(t, a)
		for v, k := range a {
			times[v] = t.Time[v][k]
		}
		//hetsynth:ignore retval LongestPathLength fails only on malformed
		// weights; times derives them from the validated table.
		length, _ := p.Graph.LongestPathLength(times, dist)
		e := float64(cost)
		if length > p.Deadline {
			e += float64(lambda) * float64(length-p.Deadline)
		}
		return e, cost, length
	}

	// Start from the greedy solution when feasible, else all-fastest.
	cur := minTimeAssignment(t)
	if s, err := Greedy(p); err == nil {
		cur = s.Assign.Clone()
	}
	curE, curCost, curLen := energy(cur)

	var bestA Assignment
	var bestCost int64 = math.MaxInt64
	if curLen <= p.Deadline {
		bestA, bestCost = cur.Clone(), curCost
	}

	t0 := opts.T0
	if t0 <= 0 {
		t0 = float64(lambda) * 2
	}
	temp := t0
	sinceImprove := 0
	for i := 0; i < moves; i++ {
		if i&255 == 0 && ctx.Err() != nil {
			if bestA == nil {
				return Solution{}, ctx.Err()
			}
			sol, eerr := Evaluate(p, bestA)
			if eerr != nil {
				return Solution{}, eerr
			}
			return sol, ctx.Err()
		}
		v := rng.Intn(n)
		k := fu.TypeID(rng.Intn(K))
		if k == cur[v] {
			continue
		}
		old := cur[v]
		cur[v] = k
		newE, newCost, newLen := energy(cur)
		accept := newE <= curE || rng.Float64() < math.Exp((curE-newE)/temp)
		improved := false
		if accept {
			curE, curCost, curLen = newE, newCost, newLen
			if curLen <= p.Deadline && curCost < bestCost {
				bestA, bestCost = cur.Clone(), curCost
				improved = true
			}
		} else {
			cur[v] = old
		}
		if improved {
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if opts.ReheatAfter > 0 && sinceImprove >= opts.ReheatAfter {
			temp = t0
			sinceImprove = 0
		} else {
			temp *= alpha
		}
	}
	if bestA == nil {
		return Solution{}, ErrInfeasible
	}
	return Evaluate(p, bestA)
}
