package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{
		{0.50, 50 * time.Millisecond, 50},
		{0.99, 99 * time.Millisecond, 1},
		{1.00, 100 * time.Millisecond, 0},
		{0.001, 1 * time.Millisecond, 99},
	} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := s.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// A p99 over 1000 samples rests on exactly ten samples beyond it.
func TestP99SupportAtWindowSize(t *testing.T) {
	s := make(samples, 1000)
	for i := range s {
		s[i] = time.Duration(i)
	}
	if got := s.beyond(0.99); got != 10 {
		t.Fatalf("beyond(0.99) over 1000 samples = %d, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Windows are dropped by the host steal measured in them, never by their
// own latency: a stall of the program in a window with no steal counts in
// full, and a window with heavy steal is left out.
func TestWindowsDropStealNotSlowness(t *testing.T) {
	start := time.Unix(0, 0)
	const n = 10
	at := func(k int) time.Time { return start.Add(time.Duration(k) * windowWidth) }
	var outs []outcome
	var procs []procSample
	for k := 0; k <= n; k++ {
		// Window 3 has 40% of 2 CPUs stolen; the rest none. The servers
		// burn 100ms of cpu per window: 1ms per request.
		steal := time.Duration(0)
		if k > 3 {
			steal = windowWidth * 8 / 10
		}
		procs = append(procs, procSample{at: at(k), steal: steal, procStat: procStat{cpu: time.Duration(k) * 100 * time.Millisecond}})
		if k == n {
			break
		}
		lat := 2 * time.Millisecond
		switch k {
		case 3:
			lat = 9 * time.Millisecond // slow under steal: dropped
		case 6, 7, 8:
			lat = 50 * time.Millisecond // the program's own stall: kept
		}
		for i := 0; i < 100; i++ {
			o := at(k).Add(time.Duration(i) * windowWidth / 100)
			outs = append(outs, outcome{sent: true, status: 200, lat: lat, start: o, end: o})
		}
	}
	ws := cutWindows(procs, []stretch{{start, n * windowWidth}}, 2)
	if ws.kept() != n-1 || ws[3].keep {
		t.Fatalf("kept %v, want every window but 3", ws)
	}
	lat := ws.latencies(outs, sendTime)
	if got := lat.quantile(0.75); got != 50*time.Millisecond {
		t.Errorf("p75 %v hides a stall in a third of the kept windows", got)
	}
	if len(lat) != (n-1)*100 {
		t.Errorf("%d latencies, want %d", len(lat), (n-1)*100)
	}
	rps, cpu := ws.rate(outs, procs)
	if want := 100 / windowWidth.Seconds(); math.Abs(rps-want) > 1e-9 || math.Abs(cpu-1) > 1e-9 {
		t.Errorf("rate = %v/s, %v cpu ms/req; want %v, 1", rps, cpu, want)
	}
}

// However much steal a phase sees, it keeps the quarter of its windows
// with the least.
func TestWindowsKeepLeastStolenQuarter(t *testing.T) {
	start := time.Unix(0, 0)
	var procs []procSample
	var steal time.Duration
	for k := 0; k <= 8; k++ {
		procs = append(procs, procSample{at: start.Add(time.Duration(k) * windowWidth), steal: steal})
		steal += windowWidth * time.Duration(3+k%4) / 10
	}
	ws := cutWindows(procs, []stretch{{start, 8 * windowWidth}}, 1)
	if ws.kept() != 2 || !ws[0].keep || !ws[4].keep {
		t.Fatalf("kept %v, want windows 0 and 4, the least stolen", ws)
	}
}

// A phase cut into stretches counts only what falls inside them: requests
// and cpu in the gaps, where the other phase runs, are left out.
func TestWindowsSpanInterleavedStretches(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(k int) time.Time { return start.Add(time.Duration(k) * windowWidth) }
	var procs []procSample
	var outs []outcome
	for k := 0; k <= 6; k++ {
		// 100ms of server cpu per window; windows 2 and 3 are the gap.
		procs = append(procs, procSample{at: at(k), procStat: procStat{cpu: time.Duration(k) * 100 * time.Millisecond}})
		if k == 6 {
			break
		}
		n, lat := 10, time.Millisecond
		if k == 2 || k == 3 {
			n, lat = 1000, time.Second
		}
		for i := 0; i < n; i++ {
			o := at(k).Add(time.Duration(i) * windowWidth / time.Duration(n))
			outs = append(outs, outcome{sent: true, status: 200, lat: lat, start: o, end: o})
		}
	}
	ws := cutWindows(procs, []stretch{{at(0), 2 * windowWidth}, {at(4), 2 * windowWidth}}, 1)
	if len(ws) != 4 || ws.kept() != 4 {
		t.Fatalf("windows %v, want 4 kept", ws)
	}
	lat := ws.latencies(outs, sendTime)
	if len(lat) != 40 || lat.quantile(1) != time.Millisecond {
		t.Errorf("%d latencies, max %v; want 40 of 1ms", len(lat), lat.quantile(1))
	}
	rps, cpu := ws.rate(outs, procs)
	if want := 10 / windowWidth.Seconds(); math.Abs(rps-want) > 1e-9 || math.Abs(cpu-10) > 1e-9 {
		t.Errorf("rate = %v/s, %v cpu ms/req; want %v, 10", rps, cpu, want)
	}
}
