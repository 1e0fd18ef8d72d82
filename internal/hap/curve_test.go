package hap

import (
	"testing"

	"hetsynth/internal/fu"
)

func TestCurveEval(t *testing.T) {
	c := curve{{T: 3, C: 40}, {T: 5, C: 25}, {T: 9, C: 10}}
	cases := []struct {
		j    int
		want int64
	}{
		{0, inf}, {2, inf}, {3, 40}, {4, 40}, {5, 25}, {8, 25}, {9, 10}, {100, 10},
	}
	for _, tc := range cases {
		if got := c.eval(tc.j); got != tc.want {
			t.Errorf("eval(%d) = %d, want %d", tc.j, got, tc.want)
		}
	}
	if got := curve(nil).eval(7); got != inf {
		t.Errorf("nil curve eval = %d, want inf", got)
	}
}

func TestSumCurvesEdgeCases(t *testing.T) {
	var sc dpScratch
	if got := sumCurves(nil, 10, &sc); len(got) != 1 || got[0] != (curvePoint{T: 0, C: 0}) {
		t.Fatalf("empty sum = %+v, want zero curve", got)
	}
	a := curve{{T: 2, C: 8}, {T: 6, C: 3}, {T: 12, C: 1}}
	if got := sumCurves([]curve{a}, 7, &sc); len(got) != 2 || got[1] != (curvePoint{T: 6, C: 3}) {
		t.Fatalf("single-addend truncation = %+v", got)
	}
	if got := sumCurves([]curve{a, nil}, 10, &sc); got != nil {
		t.Fatalf("sum with infeasible addend = %+v, want nil", got)
	}
	// Both addends' first breakpoints beyond the limit: infeasible.
	if got := sumCurves([]curve{a, {{T: 9, C: 1}}}, 8, &sc); got != nil {
		t.Fatalf("sum starting past limit = %+v, want nil", got)
	}
}

func TestEnvelopeTruncatesAndDominates(t *testing.T) {
	var sc dpScratch
	// One node, two children summed to `sum`; type 0 fast+expensive, type 1
	// slow+cheap, type 2 dominated by type 0 (same time, higher cost).
	sum := curve{{T: 1, C: 20}, {T: 4, C: 5}}
	times := []int{2, 5, 2}
	costs := []int64{30, 3, 31}
	got := envelope(sum, []fu.TypeID{0, 1, 2}, times, costs, 9, &sc)
	want := curve{{T: 3, C: 50}, {T: 6, C: 23}, {T: 9, C: 8}}
	if len(got) != len(want) {
		t.Fatalf("envelope = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("envelope = %+v, want %+v", got, want)
		}
	}
	if got := envelope(sum, []fu.TypeID{1}, times, costs, 5, &sc); got != nil {
		t.Fatalf("envelope past limit = %+v, want nil", got)
	}
	// A later candidate that only ties the running minimum adds no
	// breakpoint, on the dense window and on the wide-span merge alike.
	for _, scale := range []int{1, wideScale} {
		got := envelope(curve{{T: 0, C: 10}}, []fu.TypeID{0, 1}, []int{scale, 3 * scale}, []int64{5, 5}, 4*scale, &sc)
		if len(got) != 1 || got[0] != (curvePoint{T: scale, C: 15}) {
			t.Fatalf("scale %d: tied envelope = %+v, want [{%d 15}]", scale, got, scale)
		}
	}
}

// decodeCurve turns fuzz bytes into a well-formed curve: strictly increasing
// times (steps of 1-7 time units, the first from 0-6), strictly decreasing
// costs. Times are multiplied by scale. Returns leftover bytes.
func decodeCurve(data []byte, npts, scale int) (curve, []byte) {
	c := curve{}
	tm, cost := 0, int64(1+len(data))*100
	for i := 0; i < npts && len(data) >= 2; i++ {
		step := int(data[0] % 7)
		if i > 0 {
			step++
		}
		tm += step * scale
		cost -= 1 + int64(data[1]%9)
		data = data[2:]
		c = append(c, curvePoint{T: tm, C: cost})
	}
	return c, data
}

// wideScale spreads fuzzed breakpoints far enough apart that a merge's time
// window exceeds denseWindowFactor times its points, so the kernels fall
// back to their cursor merges; scale 1 keeps them on the dense window.
const wideScale = 97

// FuzzCurveMerge cross-checks the two merge routines of the sparse DP
// against pointwise brute force: for every deadline j up to the limit,
// sumCurves must equal the sum of its addends' values and envelope must
// equal the cheapest shifted candidate, and both outputs must be strictly
// monotone breakpoint lists within the limit — which makes them the unique
// representation, whichever kernel built them. Each input picks 1-4 addends,
// 1-8 candidate types (zero and duplicate time shifts included) and a time
// scale that steers the kernels onto the dense window or the wide-span
// fallback.
func FuzzCurveMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{250, 1, 9, 200, 3, 3, 60, 61, 62, 63, 64, 65, 66, 67})
	f.Add([]byte{78, 3, 7, 4, 1, 1, 2, 2, 3, 3, 4, 4, 3, 5, 1, 1, 2, 4, 3, 1, 0, 9, 0, 8, 5, 7, 5, 3, 2, 2, 7, 9, 1, 1, 4, 20})
	f.Add([]byte{79, 3, 7, 4, 1, 1, 2, 2, 3, 3, 4, 4, 3, 5, 1, 1, 2, 4, 3, 1, 0, 9, 0, 8, 5, 7, 5, 3, 2, 2, 7, 9, 1, 1, 4, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		scale := 1
		if data[0]&1 == 1 {
			scale = wideScale
		}
		limit := 1 + int(data[0]>>1%40)*scale
		addends := make([]curve, 1+int(data[1]%4))
		ncand := 1 + int(data[2]%8)
		data = data[3:]
		for i := range addends {
			npts := 0
			if len(data) > 0 {
				npts, data = int(data[0]%5), data[1:]
			}
			addends[i], data = decodeCurve(data, npts, scale)
		}

		var sc dpScratch
		sum := sumCurves(addends, limit, &sc)
		checkMonotone(t, "sum", sum, limit)
		for j := 0; j <= limit; j++ {
			want := int64(0)
			for _, a := range addends {
				if x := a.eval(j); x == inf || want == inf {
					want = inf
				} else {
					want += x
				}
			}
			if got := sum.eval(j); got != want {
				t.Fatalf("sum.eval(%d) = %d, want %d (addends=%+v)", j, got, want, addends)
			}
		}

		if len(sum) == 0 || len(data) < 2*ncand {
			return
		}
		// The candidate types' rows, decoded from the remaining bytes.
		cand := make([]fu.TypeID, ncand)
		times := make([]int, ncand)
		costs := make([]int64, ncand)
		for k := range cand {
			cand[k] = fu.TypeID(k)
			times[k] = int(data[2*k]%8) * scale
			costs[k] = int64(data[2*k+1] % 50)
		}
		// envelope must not alias sum (both live in the scratch): copy.
		in := append(curve(nil), sum...)
		env := envelope(in, cand, times, costs, limit, &sc)
		checkMonotone(t, "envelope", env, limit)
		for j := 0; j <= limit; j++ {
			want := int64(inf)
			for k := range cand {
				if rem := j - times[k]; rem >= 0 {
					if x := in.eval(rem); x != inf && x+costs[k] < want {
						want = x + costs[k]
					}
				}
			}
			if got := env.eval(j); got != want {
				t.Fatalf("envelope.eval(%d) = %d, want %d (sum=%+v times=%v costs=%v)", j, got, want, in, times, costs)
			}
		}
	})
}

func TestCurveKernelsTakeBothPaths(t *testing.T) {
	// The fuzz seeds above rely on the scale steering the kernels: dense
	// breakpoints go through a window spanning their time range, spread-out
	// ones through the cursor merges, which use one scratch slot per run.
	// Counting the scratch slots a call overwrote tells the paths apart.
	const sentinel = -12345
	touched := func(sc *dpScratch) int {
		n := 0
		for _, x := range sc.buf {
			if x != sentinel {
				n++
			}
		}
		return n
	}
	poisoned := func() *dpScratch {
		sc := &dpScratch{buf: make([]int64, 4096)}
		for i := range sc.buf {
			sc.buf[i] = sentinel
		}
		return sc
	}
	for _, scale := range []int{1, wideScale} {
		a, _ := decodeCurve([]byte{1, 1, 2, 2, 3, 3, 4, 4}, 4, scale)
		b, _ := decodeCurve([]byte{0, 5, 1, 1, 3, 2, 2, 4}, 4, scale)
		sumSc, envSc := poisoned(), poisoned()
		sum := sumCurves([]curve{a, b}, 40*scale, sumSc)
		envelope(sum, []fu.TypeID{0, 1, 2}, []int{0, scale, 3 * scale}, []int64{9, 4, 1}, 40*scale, envSc)
		for i, sc := range []*dpScratch{sumSc, envSc} {
			runs := []int{2, 3}[i] // addends, candidates
			if n := touched(sc); (n > runs) != (scale == 1) {
				t.Fatalf("scale %d kernel %d: wrote %d scratch slots for %d runs; want the dense window = %v", scale, i, n, runs, scale == 1)
			}
		}
	}
}

func checkMonotone(t *testing.T, name string, c curve, limit int) {
	t.Helper()
	if len(c) > 0 && c[len(c)-1].T > limit {
		t.Fatalf("%s has a breakpoint past the limit %d: %+v", name, limit, c)
	}
	for i := 1; i < len(c); i++ {
		if c[i].T <= c[i-1].T || c[i].C >= c[i-1].C {
			t.Fatalf("%s not strictly monotone: %+v", name, c)
		}
	}
}
