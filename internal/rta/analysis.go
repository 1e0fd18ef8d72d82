package rta

import (
	"hetsynth/internal/hap"
)

// demand is one candidate operating point of a task: a concrete assignment
// and the resource demand it induces.
type demand struct {
	assign  hap.Assignment
	length  int     // critical path (control steps) under assign
	total   int64   // sequential execution time: summed node times
	work    []int64 // per-type summed node times
	maxNode int     // largest single node time (non-preemptive blocking grain)
	energy  int64   // summed HAP cost (the paper's phase-1 objective)
	used    []bool  // used[k]: assign places at least one node on type k
}

// newDemand evaluates an assignment into a demand. It runs one longest-path
// pass, O(|V|+|E|).
func newDemand(t Task, a hap.Assignment) (*demand, error) {
	sol, err := hap.Evaluate(hap.Problem{Graph: t.Graph, Table: t.Table, Deadline: t.RelDeadline()}, a)
	if err != nil {
		return nil, err
	}
	k := t.Table.K()
	d := &demand{
		assign: a,
		length: sol.Length,
		energy: sol.Cost,
		work:   make([]int64, k),
		used:   make([]bool, k),
	}
	for v, ty := range a {
		w := t.Table.Time[v][ty]
		d.work[ty] += int64(w)
		d.total += int64(w)
		if w > d.maxNode {
			d.maxNode = w
		}
		d.used[ty] = true
	}
	return d, nil
}

// gcd returns the greatest common divisor of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm returns the least common multiple of two positive ints.
func lcm(a, b int) int { return a / gcd(a, b) * b }

// heavyBound computes the typed Graham/Han response-time bound of one DAG
// job executed by any work-conserving typed list scheduler on a dedicated
// partition of part[k] FUs of each type k:
//
//	R  <=  sum_k W_k/part_k  +  max over paths λ of sum_{v in λ} w_v·(1 − 1/part_{type(v)})
//
// (Han et al., response-time bounds for typed DAG tasks on heterogeneous
// multi-cores; for a single type this is Graham's classic W/m + (1−1/m)·L.)
// Every type with work must have part[k] >= 1; callers guarantee it. The
// bound is evaluated in exact rational arithmetic over the common
// denominator lcm(part…) <= lcm(1..MaxPartition) and rounded up, so the
// returned integer never under-approximates. O(|V|·K + |E|).
func heavyBound(t Task, d *demand, part []int) int {
	// Common denominator of all partition sizes in use.
	den := 1
	for k, m := range part {
		if m > 0 && d.work[k] > 0 {
			den = lcm(den, m)
		}
	}
	// Volume term: sum_k W_k·(den/part_k), over denominator den.
	var volNum int64
	for k, w := range d.work {
		if w > 0 {
			volNum += w * int64(den/part[k])
		}
	}
	// Scaled critical path: node v weighs w_v·(den − den/part_{type(v)}),
	// over denominator den. Longest path over the zero-delay DAG portion in
	// topological order.
	order, err := t.Graph.TopoOrder()
	if err != nil {
		// Validated task sets are acyclic; an error here means the caller
		// skipped Validate, and the zero bound would be unsound — fail loud.
		panic("rta: heavyBound on cyclic graph: " + err.Error())
	}
	dist := make([]int64, t.Graph.N())
	var lpNum int64
	for _, v := range order {
		ty := d.assign[v]
		wv := int64(t.Table.Time[v][ty]) * int64(den-den/part[ty])
		best := int64(0)
		for _, u := range t.Graph.Pred(v) {
			if dist[u] > best {
				best = dist[u]
			}
		}
		dist[v] = best + wv
		if dist[v] > lpNum {
			lpNum = dist[v]
		}
	}
	num := volNum + lpNum
	return int((num + int64(den) - 1) / int64(den))
}

// member is one light task placed on a shared channel, carrying the
// per-channel RTA inputs of its chosen operating point.
type member struct {
	task   int // task index in the set
	period int
	dl     int   // relative deadline
	c      int64 // sequential execution time (demand.total)
	blk    int   // largest single node time (blocking grain)
}

// prioBefore orders members by deadline-monotonic priority: smaller
// relative deadline first, ties by smaller period, then task index.
func prioBefore(a, b *member) bool {
	if a.dl != b.dl {
		return a.dl < b.dl
	}
	if a.period != b.period {
		return a.period < b.period
	}
	return a.task < b.task
}

// channelRTA runs the iterative response-time test for every member of one
// serialized channel, in priority order (members must already be sorted by
// prioBefore). The channel executes at most one node at a time across all
// member jobs, re-arbitrating by deadline-monotonic priority at node
// boundaries, so member i's worst response is bounded by the fixed point of
//
//	R_i = C_i + B_i + sum_{j in hp(i)} ceil((R_i + (D_j − C_j)) / T_j) · C_j
//
// where B_i is the largest single node of any lower-priority member (at
// most one lower-priority node can be in flight when a job of i arrives,
// and node execution is non-preemptive) and the (D_j − C_j) padding
// upper-bounds higher-priority self-suspension as release jitter (the
// standard suspension-as-jitter transformation — safe here, where jobs do
// not actually suspend, and required the moment they do).
//
// It returns the per-member response bounds and whether every member makes
// its deadline. Each fixed point converges in at most D_i iterations;
// overall O(n² · iterations) for n members, with n small (bin-packed
// channels hold few tasks).
func channelRTA(members []*member) ([]int, bool) {
	resp := make([]int, len(members))
	for i, mi := range members {
		// Blocking: the largest node of any lower-priority member.
		var blk int64
		for _, mj := range members[i+1:] {
			if int64(mj.blk) > blk {
				blk = int64(mj.blk)
			}
		}
		r := mi.c + blk
		for iter := 0; ; iter++ {
			if r > int64(mi.dl) || iter >= rtaIterCap {
				// Past the deadline, or the fixed point crawls (rtaIterCap
				// bounds work): both reject, which is always sound.
				return resp, false
			}
			next := mi.c + blk
			for _, mj := range members[:i] {
				jitter := int64(mj.dl) - mj.c // >= 0: admitted members have C <= D
				next += ceilDiv(r+jitter, int64(mj.period)) * mj.c
			}
			if next == r {
				break
			}
			r = next
		}
		resp[i] = int(r)
	}
	return resp, true
}

// ceilDiv returns ceil(a/b) for a >= 0, b > 0.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
