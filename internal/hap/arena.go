package hap

import (
	"math"
	"sync"
)

// This file holds the flat curve arenas behind the sparse tree DP. The DP
// retains one Pareto curve per node; storing each as its own []curvePoint
// slice scatters |V| small allocations across the heap and makes the k-way
// merges chase pointers. Instead, every retained curve lives inside a large
// contiguous []curvePoint backing store (a curveArena) owned by its solver,
// and the per-node handle is a curveRef — 12 bytes of plain integers instead
// of a 24-byte slice header — so a whole tree solve touches a handful of
// large allocations, the merges stream over adjacent memory, and recycling a
// solver returns all curve storage to a pool in O(arenas) operations.
//
// Arena invariants:
//
//   - A curve, once written, is immutable: storeCurve appends the points and
//     the full-slice expression in curveOf pins the capacity, so later
//     appends can never clobber a retained curve.
//   - Arena 0 is the solver's serial arena; recomputeParallel registers one
//     additional arena per worker so workers append without synchronization.
//     The ready-queue handoff that orders a child's computation before its
//     parent's read is the same happens-before edge that publishes the
//     arena bytes.
//   - Incremental re-solves append fresh curves and abandon the old ranges;
//     the garbage is reclaimed wholesale when the solver is released, or by
//     compactArena if an arena would outgrow its int32 offset space.
//   - release() returns every arena to the pool; callers must have copied
//     anything they keep (Solution and FrontierPoint values copy, never
//     alias), exactly as with the pooled dpScratch.
//   - seal() ends a solver's build: it copies the live curves into one
//     exact-size arena of its own and returns the build arenas to the pool.
//     FrontierSolver seals, so a cached solver holds Σ|curve| points and no
//     append slack or abandoned ranges.
type curveArena struct {
	pts []curvePoint
}

// curveRef locates one node's retained curve inside a solver's arenas:
// arenas[ar].pts[off : off+n]. n == 0 is the everywhere-infeasible (nil)
// curve. The zero value is an empty curve, so a freshly built solver's refs
// are all infeasible until recompute fills them.
type curveRef struct {
	off int32
	n   int32
	ar  int32
}

// maxArenaPoints bounds one arena's length so curveRef offsets fit in int32.
// It is a variable only so tests can lower it to exercise compaction; real
// arenas never get within orders of magnitude of the limit.
var maxArenaPoints = math.MaxInt32

// arenaPool recycles arena backing stores across solves, so a steady stream
// of tree solves (the serving hot path) reuses the same few large blocks
// instead of re-growing them per request.
var arenaPool = sync.Pool{New: func() any { return new(curveArena) }}

// getArena hands out an exclusive, empty arena with whatever capacity its
// previous life grew to. Reusing the backing array verbatim is sound because
// putArena's contract guarantees no live curve aliases it.
func getArena() *curveArena {
	a := arenaPool.Get().(*curveArena)
	a.pts = a.pts[:0]
	return a
}

// putArena recycles an arena. Callers must guarantee every curveRef into it
// is dead — i.e. the owning solver is being discarded.
func putArena(a *curveArena) { arenaPool.Put(a) }
