package hap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hetsynth/internal/fu"
)

// errStopped is the sentinel a worker returns when it unwound because the
// shared stop flag was raised by another worker (or by cancellation); it
// never escapes to callers.
var errStopped = errors.New("hap: search stopped")

// incumbent is the workers' shared best-so-far. The cost bound is read
// lock-free on the hot path; the assignment behind it is mutex-protected.
type incumbent struct {
	cost       atomic.Int64
	mu         sync.Mutex
	assign     Assignment // guarded by mu
	assignCost int64      // guarded by mu; cost of assign, kept consistent with it
}

// record lowers the incumbent to (cost, a) when it improves on the current
// bound; the CAS loop keeps losing workers off the mutex entirely.
func (b *incumbent) record(cost int64, a Assignment) {
	for {
		cur := b.cost.Load()
		if cost >= cur {
			return
		}
		if b.cost.CompareAndSwap(cur, cost) {
			b.mu.Lock()
			// Another goroutine may have swapped in an even better
			// cost after our CAS; only overwrite if we still hold it.
			if b.cost.Load() == cost {
				b.assign = a.Clone()
				b.assignCost = cost
			}
			b.mu.Unlock()
			return
		}
	}
}

// snapshot returns the recorded assignment with its cost, read consistently
// under the mutex; ok is false when nothing feasible landed. Callers must
// treat the returned assignment as read-only (SearchStats.Incumbent clones).
func (b *incumbent) snapshot() (Assignment, int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.assign == nil {
		return nil, 0, false
	}
	return b.assign, b.assignCost, true
}

// ExactParallel is Exact with the top level of the branch-and-bound fanned
// out over worker goroutines: the K type choices of the first node in
// topological order become K independent subtree searches, each with its
// own mutable state, sharing only the incumbent bound through an atomic.
// Sharing the bound is what makes this worthwhile — a worker that finds a
// good solution immediately tightens the pruning of every other worker.
//
// The result is the same optimum Exact finds (the incumbent is only ever
// lowered); the explored-state total can differ run to run because bound
// propagation is timing-dependent, so the state budget is enforced
// per-worker.
func ExactParallel(p Problem, opts ExactOptions) (Solution, error) {
	return ExactParallelCtx(context.Background(), p, opts)
}

// ExactParallelCtx is ExactParallel — the exponential branch-and-bound over
// K-way type choices, parallelized at the top level — with cooperative
// cancellation. Workers
// poll the context every ~1k explored states and raise a shared stop flag
// the moment it reports done (or any worker fails), so the whole fan-out
// unwinds promptly — cancellation latency is bounded by one poll interval,
// not by the remaining search. All workers are always joined before the
// function returns: a cancelled call leaks no goroutines.
func ExactParallelCtx(ctx context.Context, p Problem, opts ExactOptions) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	K := p.K()
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || K <= 1 || p.Graph.N() < 2 {
		return ExactCtx(ctx, p, opts)
	}
	budget := opts.MaxStates
	if budget <= 0 {
		budget = DefaultMaxStates
	}
	stats := opts.Stats

	order, err := p.Graph.TopoOrder()
	if err != nil {
		return Solution{}, err
	}
	t := p.Table
	n := p.Graph.N()
	if minLen, err := MinMakespan(p.Graph, t); err != nil {
		return Solution{}, err
	} else if minLen > p.Deadline {
		return Solution{}, ErrInfeasible
	}

	// With stats attached, the stats incumbent IS the shared incumbent, so
	// observers see every improvement the moment a worker records it.
	inc := &incumbent{}
	if stats != nil {
		stats.reset()
		inc = &stats.inc
	}
	inc.cost.Store(int64(inf))
	for _, seed := range []func(Problem) (Solution, error){GreedyRatio, Greedy, AssignOnce} {
		if s, err := seed(p); err == nil {
			inc.record(s.Cost, s.Assign)
		}
	}

	minCostSuffix := make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		v := int(order[i])
		minCostSuffix[i] = minCostSuffix[i+1] + t.Cost[v][t.MinCostType(v)]
	}
	fastTimes := Times(t, minTimeAssignment(t))
	cands := make([][]fu.TypeID, n)
	for v := 0; v < n; v++ {
		cands[v] = distinctOptions(t, v)
	}

	// stop fans a failure or cancellation out to every worker: each polls it
	// (and the context) every 1024 states, so the whole search collapses
	// within one poll interval of the first worker noticing.
	var stop atomic.Bool
	first := int(order[0])
	var wg sync.WaitGroup
	errs := make([]error, K)
	// Per-worker frontier bounds and state counts; each worker owns its own
	// index, read only after the join.
	fronts := make([]int64, K)
	statesBy := make([]int64, K)
	for k0 := 0; k0 < K; k0++ {
		fronts[k0] = int64(inf)
		wg.Add(1)
		go func(k0 int) {
			defer wg.Done()
			times := append([]int(nil), fastTimes...)
			dist := make([]int, n) // LongestPathLength scratch
			assign := make(Assignment, n)
			assign[first] = fu.TypeID(k0)
			times[first] = t.Time[first][k0]
			states := 0
			note := func(b int64) {
				if b < fronts[k0] {
					fronts[k0] = b
				}
			}
			var rec func(i int, cost int64) error
			rec = func(i int, cost int64) error {
				states++
				if states&1023 == 0 {
					if stop.Load() {
						note(cost + minCostSuffix[i])
						return errStopped
					}
					if ctx.Err() != nil {
						stop.Store(true)
						note(cost + minCostSuffix[i])
						return errStopped
					}
				}
				if states > budget {
					stop.Store(true)
					note(cost + minCostSuffix[i])
					return fmt.Errorf("%w (budget %d per worker)", ErrSearchTooLarge, budget)
				}
				if cost+minCostSuffix[i] >= inc.cost.Load() {
					return nil
				}
				//hetsynth:ignore retval LongestPathLength fails only on
				// malformed weights; times is sized by the validated table.
				if l, _ := p.Graph.LongestPathLength(times, dist); l > p.Deadline {
					return nil
				}
				if i == n {
					inc.record(cost, assign)
					return nil
				}
				v := int(order[i])
				saved := times[v]
				for idx, k := range cands[v] {
					assign[v] = k
					times[v] = t.Time[v][k]
					if err := rec(i+1, cost+t.Cost[v][k]); err != nil {
						// The aborted child accounted for its own remainder;
						// the untried siblings are accounted for here.
						for _, k2 := range cands[v][idx+1:] {
							note(cost + t.Cost[v][k2] + minCostSuffix[i+1])
						}
						return err
					}
				}
				times[v] = saved
				return nil
			}
			errs[k0] = rec(1, t.Cost[first][k0])
			statesBy[k0] = int64(states)
		}(k0)
	}
	wg.Wait()

	var stopErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, errStopped) {
			stopErr = err
			break
		}
	}
	earlyStop := ctx.Err() != nil || stopErr != nil
	if stats != nil {
		var tot int64
		for _, s := range statesBy {
			tot += s
		}
		stats.explored.Store(tot)
		_, cost, ok := inc.snapshot()
		switch {
		case earlyStop:
			lb := int64(inf)
			for _, fb := range fronts {
				if fb < lb {
					lb = fb
				}
			}
			if ok && cost < lb {
				lb = cost
			}
			stats.lower.Store(lb)
		case ok:
			// All workers ran dry: the incumbent is the optimum.
			stats.lower.Store(cost)
		}
	}
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	if stopErr != nil {
		return Solution{}, stopErr
	}
	a, _, ok := inc.snapshot()
	if !ok {
		return Solution{}, ErrInfeasible
	}
	return Evaluate(p, a)
}
