package hap

import (
	"sync"

	"hetsynth/internal/fu"
)

// This file holds the sparse Pareto-frontier representation behind the
// Tree_Assign dynamic program. The dense DP tabulates X_v[j] for every
// integer deadline j in [0, L]; but X_v is a non-increasing step function of
// j, so it is fully described by its breakpoints — the deadlines where the
// optimal subtree cost strictly improves. A curve stores exactly those
// breakpoints, making per-node work proportional to the number of distinct
// optimal costs instead of L·K and dropping memory from O(|V|·L) to the
// frontier size.

// curvePoint is one breakpoint of a deadline→cost Pareto curve: C is the
// optimal cost for every deadline in [T, nextBreakpoint.T).
type curvePoint struct {
	T int   // smallest deadline at which C becomes achievable
	C int64 // optimal cost from that deadline on
}

// curve is a non-increasing step function stored as its breakpoints:
// strictly increasing T, strictly decreasing C. A nil/empty curve is the
// everywhere-infeasible function. Deadlines below the first breakpoint are
// infeasible; beyond the last breakpoint the cost stays at the final C.
type curve []curvePoint

// zeroCurve is the curve of an empty child set: cost 0 at every deadline.
var zeroCurve = curve{{T: 0, C: 0}}

// idxAt returns the index of the breakpoint in effect at deadline j
// (the largest i with c[i].T <= j), or -1 when j is infeasible.
func (c curve) idxAt(j int) int {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].T <= j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// eval returns the curve value at deadline j, or inf when no assignment of
// the underlying subtree can meet j.
func (c curve) eval(j int) int64 {
	i := c.idxAt(j)
	if i < 0 {
		return inf
	}
	return c[i].C
}

// dpScratch holds the reusable transient buffers of the per-node curve
// construction. Each solver (and each parallel DP worker) owns one; retained
// curves live in the solver's curveArena (see arena.go), so every scratch
// buffer is dead the moment its current call returns and the scratch can
// always go back to the pool whole.
type dpScratch struct {
	kids []curve      // the child curves being summed
	buf  []int64      // a kernel's dense time window, or its merge cursors
	sum  []curvePoint // the summed child curve (consumed immediately)
	pts  []curvePoint // envelope breakpoints before the arena copy
}

// grow returns sc.buf resized to n slots. Windows widen node by node up
// the tree, so the buffer grows geometrically: a cold solve reallocates it a
// handful of times, not once per new widest node. The contents are stale;
// each kernel initializes the slots it reads.
func (sc *dpScratch) grow(n int) []int64 {
	if cap(sc.buf) < n {
		sc.buf = make([]int64, max(n, 2*cap(sc.buf), 64))
	}
	return sc.buf[:n]
}

// denseWindowFactor guards the dense-window kernels. Curve times are
// integers, so a merge can bucket its breakpoints by time into a window
// spanning the output's time range and sweep it once, in O(points + W)
// instead of a cursor merge's O(points · runs). The window is used only when
// its width W is at most denseWindowFactor times the points being merged;
// wider spans (tables with huge, sparse times) keep the cursor merge, so no
// node ever pays O(horizon) work or memory.
const denseWindowFactor = 4

// scratchPool recycles dpScratch buffers across solves, so a steady stream
// of tree solves (the serving hot path) reuses the same windows and merge
// buffers instead of re-growing them per request.
var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// getScratch hands out an exclusive scratch.
func getScratch() *dpScratch { return scratchPool.Get().(*dpScratch) }

// putScratch recycles sc. Safe whenever the owner is done with its current
// merge: nothing retained aliases a scratch buffer.
func putScratch(sc *dpScratch) { scratchPool.Put(sc) }

// sumCurves adds a set of step functions: out(j) = Σ curves[i](j), infeasible
// wherever any addend is. Breakpoints beyond limit are discarded (the DP never
// queries past the deadline). The result aliases sc.sum — or one of the
// inputs when len(curves) == 1 — and is only valid until the next call with
// the same scratch; callers must copy anything they keep.
//
// When the output's time span is narrow (see denseWindowFactor), each
// addend's cost deltas are accumulated into a window slot per time and one
// prefix-sum sweep emits the breakpoints: O(Σ|c| + W). Otherwise per-addend
// cursors walk the breakpoints in time order: O(|out| · len(curves)). Both
// produce the same breakpoints, since the sum is a unique step function.
//
// hetsynth:hotpath
func sumCurves(curves []curve, limit int, sc *dpScratch) curve {
	switch len(curves) {
	case 0:
		return zeroCurve
	case 1:
		c := curves[0]
		// Already capped by construction everywhere but the forest-root sum,
		// where a single root may still need truncating.
		for len(c) > 0 && c[len(c)-1].T > limit {
			c = c[:len(c)-1]
		}
		return c
	}
	start, end, npts := 0, 0, 0
	for _, c := range curves {
		if len(c) == 0 {
			return nil
		}
		if c[0].T > start {
			start = c[0].T
		}
		if t := c[len(c)-1].T; t > end {
			end = t
		}
		npts += len(c)
	}
	if start > limit {
		return nil
	}
	if end > limit {
		end = limit
	}
	w := end - start + 1
	dense := w <= denseWindowFactor*npts
	if !dense {
		w = len(curves)
	}
	buf := sc.grow(w)
	if dense {
		// Deltas are strictly negative, so a nonzero slot is exactly a time
		// where the running sum drops: the result is strictly monotone.
		win := buf
		clear(win)
		var base int64
		for _, c := range curves {
			i := c.idxAt(start)
			base += c[i].C
			for j := i + 1; j < len(c) && c[j].T <= end; j++ {
				win[c[j].T-start] += c[j].C - c[j-1].C
			}
		}
		out := append(sc.sum[:0], curvePoint{T: start, C: base})
		cur := base
		for t := 1; t < w; t++ {
			if d := win[t]; d != 0 {
				cur += d
				out = append(out, curvePoint{T: start + t, C: cur})
			}
		}
		sc.sum = out
		return out
	}
	// Per-addend cursors walk the breakpoints in time order (each addend is
	// already sorted), accumulating the running sum at every time where any
	// addend's cost drops.
	idx := buf
	var base int64
	for i, c := range curves {
		j := c.idxAt(start)
		idx[i] = int64(j)
		base += c[j].C
	}
	out := append(sc.sum[:0], curvePoint{T: start, C: base})
	cur := base
	for {
		nt := limit + 1
		for i, c := range curves {
			if j := int(idx[i]) + 1; j < len(c) && c[j].T < nt {
				nt = c[j].T
			}
		}
		if nt > limit {
			break
		}
		for i, c := range curves {
			if j := int(idx[i]) + 1; j < len(c) && c[j].T == nt {
				cur += c[j].C - c[j-1].C
				idx[i] = int64(j)
			}
		}
		out = append(out, curvePoint{T: nt, C: cur})
	}
	sc.sum = out
	return out
}

// envelope builds the lower envelope of the per-type candidate curves
// {(T_k + t, C_k + c) : (t, c) ∈ sum, k ∈ cand} truncated at limit — the
// node's own Pareto curve. Each candidate curve is non-increasing, so the
// envelope at deadline j is simply the minimum cost among all shifted
// breakpoints with time ≤ j: a running minimum over the breakpoints in time
// order. The result aliases sc.pts and is only valid until the next call
// with the same scratch; callers copy what they retain (the tree solver
// copies it into its curve arena).
//
// When the node's time span is narrow (see denseWindowFactor), every shifted
// breakpoint drops into its time slot of a window keeping the minimum cost
// per slot, and one running-minimum sweep emits the strict improvements:
// O(K·|sum| + W). Otherwise a K-way merge over the candidate heads visits
// the shifted breakpoints in time order: O(K²·|sum|). The envelope is a
// unique step function, so both emit the same breakpoints.
//
// hetsynth:hotpath
func envelope(sum curve, cand []fu.TypeID, timeRow []int, costRow []int64, limit int, sc *dpScratch) curve {
	if len(sum) == 0 || len(cand) == 0 {
		return nil
	}
	minT, maxT := timeRow[cand[0]], timeRow[cand[0]]
	for _, k := range cand[1:] {
		minT = min(minT, timeRow[k])
		maxT = max(maxT, timeRow[k])
	}
	lo, hi := sum[0].T+minT, min(sum[len(sum)-1].T+maxT, limit)
	if lo > limit {
		return nil
	}
	pts := sc.pts[:0]
	w := hi - lo + 1
	dense := w <= denseWindowFactor*len(cand)*len(sum)
	if !dense {
		w = len(cand)
	}
	buf := sc.grow(w)
	if dense {
		win := buf
		for i := range win {
			win[i] = inf
		}
		for _, k := range cand {
			tk, ck := timeRow[k]-lo, costRow[k]
			for _, p := range sum {
				t := p.T + tk
				if t >= w {
					break
				}
				if c := p.C + ck; c < win[t] {
					win[t] = c
				}
			}
		}
		best := int64(inf)
		for t, c := range win {
			if c < best {
				best = c
				pts = append(pts, curvePoint{T: lo + t, C: c})
			}
		}
		sc.pts = pts
		return curve(pts)
	}
	idx := buf
	clear(idx)
	best := int64(inf)
	for {
		sel := -1
		var selT int
		var selC int64
		for i, k := range cand {
			if int(idx[i]) >= len(sum) {
				continue
			}
			t := sum[idx[i]].T + timeRow[k]
			if t > limit {
				idx[i] = int64(len(sum)) // later breakpoints are later still
				continue
			}
			c := sum[idx[i]].C + costRow[k]
			if sel < 0 || t < selT || (t == selT && c < selC) {
				sel, selT, selC = i, t, c
			}
		}
		if sel < 0 {
			break
		}
		idx[sel]++
		if selC < best {
			best = selC
			pts = append(pts, curvePoint{T: selT, C: selC})
		}
	}
	sc.pts = pts
	return curve(pts)
}
