// Command perfbench is hetsynth's end-to-end benchmark. It boots the real
// hetsynthd and hetsynthrouter binaries on loopback, drives one seeded
// workload against them, certifies every answer against the generated
// instances, and prints one JSON result line:
//
//	perfbench --workload hot-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (latency, throughput,
// set-up time, memory, cpu per request, failure and exactness ratios).
// With --trace 1 the same workload runs against an in-process copy of the
// topology built from server.New(...).Handler() and
// cluster.New(...).Handler(), with spans recorded around every layer call,
// and the metrics are the per-layer ones (see trace.go).
//
// Workloads (why each was chosen is in BENCHMARK.json, which lists hot-mix
// and cold-solve; session-patch runs the same way but is left out of it
// because on a shared 2-vCPU host its run-to-run spread reached the
// benchmark's 25% bound):
//
//   - hot-mix: open loop, Poisson arrivals, client → router → 2 nodes, zipf
//     over a working set that overflows one node's cache but fits in two;
//     in six rounds, each followed by a closed-loop throughput phase on the
//     same mix.
//   - cold-solve: closed loop, one client per CPU, direct to one node; every
//     request carries a fresh instance digest.
//   - session-patch: closed loop, one client per CPU (at most one per
//     session), direct to one node; PATCH deltas interleaved with GET reads
//     of stateful sessions.
//
// The binaries are found in --bin (default .bench_build/bin); run.sh builds
// them from the checkout first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A run boots its topology at least setupMinRepeats times to measure
// setup_s, and keeps booting while the boots so far took less than
// setupBudget, up to setupMaxRepeats: a set-up of a few tens of
// milliseconds is measured many times, one of seconds five times. The
// reported value is the median, and the last boot serves the measured
// phases.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 41
	setupBudget     = 2 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives byte-identical request bodies")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
		bin     = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding hetsynthd and hetsynthrouter")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		children.stopAll()
		os.Exit(1)
	}
}

// children tracks every process the benchmark started, so every exit path
// (error, signal, watchdog) stops them and waits for them.
var children = &registry{}

type registry struct {
	mu     sync.Mutex
	cs     []*child
	closed bool
}

// start starts c's command and records it; once stopAll has run, nothing
// new starts.
func (r *registry) start(c *child) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("benchmark is stopping")
	}
	if err := c.cmd.Start(); err != nil {
		return err
	}
	r.cs = append(r.cs, c)
	return nil
}

func (r *registry) stopAll() {
	r.mu.Lock()
	cs := r.cs
	r.cs, r.closed = nil, true
	r.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds float64, traced bool, bin string) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		// Exits the process on a signal or when the run overstays its
		// budget; either way the children are stopped first.
		select {
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		case <-time.After(170 * time.Second):
			fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		}
		children.stopAll()
		os.Exit(2)
	}()

	t0 := time.Now()
	w, err := generate(name, seed, runtime.NumCPU(), seconds)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: generated %s in %v\n", name, time.Since(t0).Round(time.Millisecond))
	var res *result
	if traced {
		res, err = runTraced(w, seconds)
	} else {
		res, err = runUntraced(w, seconds, bin)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("wrong answers: the run is not certified")
	}
	return nil
}

// topology is one booted set of server processes.
type topology struct {
	nodes  []*child
	router *child
	entry  string // base URL the workload talks to
}

func (t *topology) all() []*child {
	if t.router == nil {
		return t.nodes
	}
	return append(append([]*child(nil), t.nodes...), t.router)
}

func (t *topology) stop() {
	for _, c := range t.all() {
		c.stop()
	}
}

// boot starts the workload's topology and waits until it serves.
func boot(w *workload, bin string) (*topology, error) {
	t := &topology{}
	nodes := 1
	if w.cluster {
		nodes = 2
	}
	var peers []string
	for i := 0; i < nodes; i++ {
		c, err := launch(filepath.Join(bin, "hetsynthd"), "-cache", strconv.Itoa(w.cache))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.nodes = append(t.nodes, c)
		peers = append(peers, c.base)
	}
	t.entry = t.nodes[0].base
	if w.cluster {
		c, err := launch(filepath.Join(bin, "hetsynthrouter"), "-peers", strings.Join(peers, ","))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.router = c
		t.entry = c.base
	}
	if err := waitReady(t.entry, nodes); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// waitReady polls /healthz until the entry point serves with every peer
// live (the router reports live_peers).
func waitReady(base string, peers int) error {
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := cl.Get(base + "/healthz")
		if err == nil {
			var h struct {
				LivePeers *int `json:"live_peers"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == 200 && derr == nil && (h.LivePeers == nil || *h.LivePeers == peers) {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", base)
}

// setUp boots the topology, sends the warm-up requests, and sends and
// certifies the first request; setup_s is the time from process launch to
// that certified answer.
func setUp(w *workload, cert *certifier, cl *http.Client, bin string) (*topology, time.Duration, error) {
	start := time.Now()
	t, err := boot(w, bin)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	for i := range w.warm {
		r := &w.warm[i]
		st, body, err := send(ctx, cl, t.entry, r, 0)
		if err != nil || st/100 != 2 {
			t.stop()
			return nil, 0, fmt.Errorf("warm-up %s %s: status %d %v %.200s", r.method, r.path, st, err, body)
		}
	}
	o := outcome{req: &w.first, sent: true}
	o.status, o.body, o.err = send(ctx, cl, t.entry, &w.first, 0)
	if !o.ok() {
		t.stop()
		return nil, 0, fmt.Errorf("first request: status %d %v %.200s", o.status, o.err, o.body)
	}
	if v := cert.check(&o); v.err != nil {
		t.stop()
		return nil, 0, fmt.Errorf("first request answer wrong: %w", v.err)
	}
	return t, time.Since(start), nil
}

// phaseStats are the latency and generator-lag samples of one phase.
type phaseStats struct {
	lat samples
	lag samples
}

func statsOf(outs []outcome) phaseStats {
	var ps phaseStats
	for i := range outs {
		ps.lat = append(ps.lat, outs[i].lat)
		if outs[i].lag > 0 {
			ps.lag = append(ps.lag, outs[i].lag)
		}
	}
	return ps
}

// windowWidth is the length of the windows a measured phase is cut into
// for the host-steal filter: short enough to cut out the bursts in which a
// shared host steals time, a few hundred milliseconds each.
const windowWidth = 250 * time.Millisecond

// stealLimit is the share of the machine's CPU time other guests may take
// in a window, or in one set-up, before it is left out of the figures.
// Steal is the hypervisor's count of time this guest had work and was not
// run: it says nothing about the program, so filtering on it takes out host
// noise while every stall of the program's own stays in. A phase always
// keeps at least a quarter of its windows, and a run a quarter of its
// set-ups, the ones with the least steal.
const stealLimit = 0.02

// stretch is one continuous part of a measured phase; a phase may be cut
// into several stretches interleaved with another phase's.
type stretch struct {
	start time.Time
	dur   time.Duration
}

// window is one cut of a stretch, with the share of the machine's CPU time
// stolen in it.
type window struct {
	start, end time.Time
	steal      float64
	keep       bool
}

// windowSet is a phase cut into windows, in time order.
type windowSet []window

// cutWindows cuts each stretch into windows of about windowWidth and keeps
// the least stolen, by the steal share read from the samples.
func cutWindows(procs []procSample, parts []stretch, cpus int) windowSet {
	var ws windowSet
	for _, st := range parts {
		n := max(1, int(st.dur.Round(windowWidth)/windowWidth))
		width := st.dur / time.Duration(n)
		for k := 0; k < n; k++ {
			from := st.start.Add(time.Duration(k) * width)
			to := from.Add(width)
			steal := sampleAt(procs, to).steal - sampleAt(procs, from).steal
			ws = append(ws, window{start: from, end: to, steal: float64(steal) / float64(width*time.Duration(cpus))})
		}
	}
	steal := make([]float64, len(ws))
	for k := range ws {
		steal[k] = ws[k].steal
	}
	for k, keep := range leastStolen(steal) {
		ws[k].keep = keep
	}
	return ws
}

// leastStolen marks the parts of a phase to keep, given the share of the
// machine's CPU time stolen in each: those at most stealLimit, and at least
// the quarter with the least steal.
func leastStolen(steal []float64) []bool {
	order := make([]int, len(steal))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return steal[order[i]] < steal[order[j]] })
	keep := make([]bool, len(steal))
	for i, k := range order {
		keep[k] = i < (len(steal)+3)/4 || steal[k] <= stealLimit
	}
	return keep
}

func (ws windowSet) in(t time.Time) bool {
	k := sort.Search(len(ws), func(i int) bool { return ws[i].end.After(t) })
	return k < len(ws) && !t.Before(ws[k].start) && ws[k].keep
}

func (ws windowSet) kept() (n int) {
	for _, w := range ws {
		if w.keep {
			n++
		}
	}
	return n
}

// dropped lists the windows left out, with their steal shares.
func (ws windowSet) dropped() map[string]float64 {
	out := map[string]float64{}
	for k, w := range ws {
		if !w.keep {
			out[strconv.Itoa(k)] = w.steal
		}
	}
	return out
}

// latencies returns the latencies of the outcomes whose time (at) falls in
// a kept window.
func (ws windowSet) latencies(outs []outcome, at func(*outcome) time.Time) samples {
	var s samples
	for i := range outs {
		if ws.in(at(&outs[i])) {
			s = append(s, outs[i].lat)
		}
	}
	return s
}

// rate returns the completed requests per second of the kept windows and,
// from the process samples, the servers' cpu milliseconds per completed
// request over the same windows. Completions count by their end.
func (ws windowSet) rate(outs []outcome, procs []procSample) (rps, cpuPerReq float64) {
	done := 0
	for i := range outs {
		if outs[i].ok() && ws.in(outs[i].end) {
			done++
		}
	}
	var cpu, secs time.Duration
	for _, w := range ws {
		if w.keep {
			cpu += sampleAt(procs, w.end).cpu - sampleAt(procs, w.start).cpu
			secs += w.end.Sub(w.start)
		}
	}
	return float64(done) / secs.Seconds(), ms(cpu) / float64(max(done, 1))
}

func dueTime(o *outcome) time.Time  { return o.start.Add(-o.lag) }
func sendTime(o *outcome) time.Time { return o.start }

// maxLagP99 is the generator's schedule tolerance: an open-loop run whose
// sends ran later than this at p99 did not offer the load it claims and is
// invalid.
const maxLagP99 = 100 * time.Millisecond

func runUntraced(w *workload, seconds float64, bin string) (*result, error) {
	cert := newCertifier(w)
	cl := newClient(w.clients)
	cpus := runtime.NumCPU()
	var setups, setupSteal []float64
	var t *topology
	var spent time.Duration
	for rep := 0; rep < setupMinRepeats || rep < setupMaxRepeats && spent < setupBudget; rep++ {
		if t != nil {
			t.stop()
		}
		var d time.Duration
		var err error
		stolen := machineSteal()
		if t, d, err = setUp(w, cert, cl, bin); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		setupSteal = append(setupSteal, float64(machineSteal()-stolen)/float64(d*time.Duration(cpus)))
		spent += d
		cl.CloseIdleConnections()
	}
	defer t.stop()
	// A fresh client per phase start keeps connection set-up out of the
	// measured window; prime it with one health probe per connection.
	cl = newClient(w.clients)
	if err := primeConns(cl, t.entry, w.clients); err != nil {
		return nil, err
	}

	ctx := context.Background()
	stealBefore := machineSteal()
	selfBefore, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	before, err := usage(t.all())
	if err != nil {
		return nil, err
	}
	stopSampling := make(chan struct{})
	sampling := sampleProcs(t.all(), 50*time.Millisecond, stopSampling)
	var lat, thr []outcome // the latency phase and the throughput phase
	var latParts, thrParts []stretch
	at := sendTime
	if w.rate > 0 {
		// The phases alternate in hotRounds rounds, so each one samples
		// the host across the whole run and not only the half it would
		// hold in one piece. The open schedule continues from round to
		// round, and so do the closed-loop clients' streams.
		openSec, closedSec := splitHot(seconds)
		openDur := time.Duration(openSec / hotRounds * float64(time.Second))
		closedDur := time.Duration(closedSec / hotRounds * float64(time.Second))
		streams := streamsOf(w)
		next := 0
		for k := 0; k < hotRounds; k++ {
			var sched []request
			for ; next < len(w.open) && w.open[next].due < time.Duration(k+1)*openDur; next++ {
				r := w.open[next]
				r.due -= time.Duration(k) * openDur
				sched = append(sched, r)
			}
			latParts = append(latParts, stretch{time.Now(), openDur})
			lat = append(lat, runOpen(ctx, cl, t.entry, sched, w.clients, openDur, 0)...)
			thrParts = append(thrParts, stretch{time.Now(), closedDur})
			thr = append(thr, flatten(runClosed(ctx, cl, t.entry, streams, closedDur, 0))...)
		}
		at = dueTime
		if lag := statsOf(lat).lag.quantile(0.99); lag > maxLagP99 {
			return nil, fmt.Errorf("open-loop generator fell behind its schedule: lag p99 %v > %v", lag, maxLagP99)
		}
	} else {
		dur := time.Duration(seconds * float64(time.Second))
		latParts = []stretch{{time.Now(), dur}}
		thrParts = latParts
		lat = flatten(runClosed(ctx, cl, t.entry, streamsOf(w), dur, 0))
		thr = lat
	}
	after, err := usage(t.all())
	if err != nil {
		return nil, err
	}
	selfAfter, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	close(stopSampling)
	procs := <-sampling
	t.stop()
	outs := lat
	if w.rate > 0 {
		outs = append(lat[:len(lat):len(lat)], thr...)
	}

	t0 := time.Now()
	tl := cert.certifyAll(outs)
	fmt.Fprintf(os.Stderr, "perfbench: certified %d answers in %v\n", len(outs), time.Since(t0).Round(time.Millisecond))
	if tl.firstWrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first wrong answer:", tl.firstWrong)
	}
	completed := 0
	for i := range outs {
		if outs[i].ok() {
			completed++
		}
	}
	if completed == 0 || tl.rated == 0 {
		return nil, errors.New("no request completed")
	}
	// Set-ups are filtered for steal like the measured windows are.
	var keptSetups []float64
	for i, keep := range leastStolen(setupSteal) {
		if keep {
			keptSetups = append(keptSetups, setups[i])
		}
	}
	latW := cutWindows(procs, latParts, cpus)
	thrW := cutWindows(procs, thrParts, cpus)
	kept := latW.latencies(lat, at)
	rps, cpuPerReq := thrW.rate(thr, procs)
	m := map[string]metric{
		"setup_s":        {median(keptSetups), "s"},
		"latency_p50_ms": {ms(kept.quantile(0.50)), "ms"},
		"latency_p75_ms": {ms(kept.quantile(0.75)), "ms"},
		"throughput_rps": {rps, "1/s"},
		"ok_ratio":       {1 - float64(tl.failed)/float64(tl.attempted), "ratio"},
		"exact_ratio":    {float64(tl.exact) / float64(tl.rated), "ratio"},
		"rss_mb":         {rssMedianMB(procs), "MB"},
		"cpu_ms_per_req": {cpuPerReq, "ms"},
	}
	all := statsOf(lat)
	// The p90 and p99 are reported here and not gated: they sit in the
	// tail that bursts of time stolen by other guests reach first, and
	// their run-to-run spread is the widest of the latency figures.
	detail := map[string]any{
		"workload":                   w.name,
		"clients":                    w.clients,
		"latency_samples":            len(kept),
		"latency_samples_all":        len(all.lat),
		"latency_p90_ms":             ms(kept.quantile(0.90)),
		"latency_p99_ms":             ms(kept.quantile(0.99)),
		"latency_p99_beyond":         kept.beyond(0.99),
		"latency_p99_all_ms":         ms(all.lat.quantile(0.99)),
		"latency_windows":            len(latW),
		"latency_windows_dropped":    latW.dropped(),
		"throughput_requests":        len(thr),
		"throughput_windows":         len(thrW),
		"throughput_windows_dropped": thrW.dropped(),
		"steal_limit":                stealLimit,
		"setup_runs_s":               setups,
		"setup_steal":                setupSteal,
		"fail_ratio":                 float64(tl.failed) / float64(tl.attempted),
		"wrong_answers":              tl.wrong,
		"exact_answers":              tl.exact,
		"rated_answers":              tl.rated,
		"cpu_ms":                     ms(after.cpu - before.cpu),
		"bench_cpu_ms":               ms(selfAfter.cpu - selfBefore.cpu),
		"bench_peak_rss_mb":          float64(selfAfter.hwmKB) / 1024,
		"peak_rss_mb":                float64(after.hwmKB) / 1024,
		"machine_steal_ms":           ms(machineSteal() - stealBefore),
	}
	if w.rate > 0 {
		detail["offered_rps"] = w.rate
		detail["harness.lag_p99_ms"] = ms(all.lag.quantile(0.99))
	}
	if err := json.NewEncoder(os.Stdout).Encode(detail); err != nil {
		return nil, err
	}
	return &result{Correct: tl.wrong == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// primeConns opens n keep-alive connections to base.
func primeConns(cl *http.Client, base string, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := request{method: "GET", path: "/healthz"}
			st, _, err := send(context.Background(), cl, base, &r, 0)
			if err == nil && st != 200 {
				err = fmt.Errorf("healthz status %d", st)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
