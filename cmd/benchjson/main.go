// Command benchjson runs the repository's Go benchmarks with allocation
// statistics and writes the parsed results to a JSON file, so successive
// runs can be diffed mechanically (e.g. to confirm the sparse DP engine's
// speedups don't regress).
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_1.json] [-bench regexp] [-pkg ./...]
//	go run ./cmd/benchjson -suite server      # hetsynthd end-to-end → BENCH_2.json
//
// The named suites bundle package/regexp/output presets: "core" is the
// solver benchmarks (BENCH_1.json), "server" the end-to-end hetsynthd HTTP
// throughput benchmarks — solve latency with and without the result cache
// and off the frontier fast path, at client concurrency 1, 8 and 64
// (BENCH_2.json). Explicit -out/-bench/-pkg flags override the preset.
//
// Compare mode diffs a run (or an existing report) against a baseline file
// and can gate CI on regressions:
//
//	go run ./cmd/benchjson -suite server -compare BENCH_2.json -out BENCH_3.json
//	go run ./cmd/benchjson -compare old.json new.json    # no run, pure diff
//	go run ./cmd/benchjson -suite server -benchtime 200ms \
//	    -compare BENCH_2.json -gate 'BenchmarkHTTPSolveCached'
//
// With -gate, benchmarks matching the regexp fail the run (exit 1) when
// ns/op regresses more than -max-ns-regress (default 25%) or allocs/op more
// than -max-allocs-regress (default 10%) versus the baseline. Results only
// in one of the two reports are reported but never gate; a gate that
// matches no benchmark present in both reports fails the run, since it
// compared nothing. Names are matched without the -N GOMAXPROCS suffix go
// test appends on multi-CPU hosts, so a baseline recorded at one CPU count
// still gates runs at another.
//
// -count N repeats every benchmark N times (go test -count) and keeps each
// name's fastest run. Scheduler noise on a busy or single-CPU machine only
// ever slows a benchmark down, so best-of-N is the least-noisy estimate and
// is what the short-benchtime CI gate uses to avoid flaking.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the file layout: environment header plus the result list.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// suites maps a suite name to its (pkg, bench regexp, default output). The
// pkg field is a whitespace-separated package-pattern list (split with
// strings.Fields), so one suite can span packages. The server suite covers
// both wire codecs (BenchmarkHTTP*Bin are the binary twins), the
// BenchmarkDirect in-process dispatch benchmarks, which measure the handler
// without the ~20µs net/http loopback floor, and — since the cluster PR —
// the internal/cluster benchmarks: ring lookups, affinity-key extraction
// on both codecs, and the end-to-end router forwarding path.
var suites = map[string][3]string{
	"core": {".", ".", "BENCH_1.json"},
	"server": {"./internal/server/ ./internal/cluster/",
		"BenchmarkHTTP|BenchmarkDirect|BenchmarkRouter|BenchmarkRing|BenchmarkAffinityKey",
		"BENCH_2.json"},
}

func main() {
	suite := flag.String("suite", "core", "benchmark suite preset (core|server)")
	out := flag.String("out", "", "output JSON file (default: the suite's)")
	bench := flag.String("bench", "", "benchmark regexp passed to -bench (default: the suite's)")
	pkg := flag.String("pkg", "", "package pattern to benchmark (default: the suite's)")
	benchtime := flag.String("benchtime", "", "per-benchmark time passed to -benchtime (e.g. 200ms)")
	count := flag.Int("count", 1, "benchmark repetitions passed to -count; results collapse to each name's fastest run (best-of-N)")
	compare := flag.String("compare", "", "baseline JSON report to diff the run (or a positional new report) against")
	gate := flag.String("gate", "", "regexp of benchmark names whose regression fails the run (needs -compare)")
	maxNs := flag.Float64("max-ns-regress", 0.25, "gated ns/op regression tolerance (0.25 = +25%)")
	maxAllocs := flag.Float64("max-allocs-regress", 0.10, "gated allocs/op regression tolerance")
	flag.Parse()

	var gateRe *regexp.Regexp
	if *gate != "" {
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate requires -compare")
			os.Exit(2)
		}
		var err error
		if gateRe, err = regexp.Compile(*gate); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -gate regexp: %v\n", err)
			os.Exit(2)
		}
	}

	var rep Report
	if *compare != "" && flag.NArg() == 1 {
		// Pure file-to-file diff: benchjson -compare old.json new.json.
		rep = loadReport(flag.Arg(0))
	} else {
		preset, ok := suites[*suite]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q (want core|server)\n", *suite)
			os.Exit(2)
		}
		if *pkg == "" {
			*pkg = preset[0]
		}
		if *bench == "" {
			*bench = preset[1]
		}
		if *out == "" {
			*out = preset[2]
		}

		args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		if *count > 1 {
			args = append(args, "-count", strconv.Itoa(*count))
		}
		args = append(args, strings.Fields(*pkg)...)
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: go test: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(buf.Bytes())

		rep = parse(&buf)
		rep.Results = bestOf(rep.Results)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
	}

	if *compare != "" {
		old := loadReport(*compare)
		if !diff(old, rep, gateRe, *maxNs, *maxAllocs) {
			os.Exit(1)
		}
	}
}

// bestOf collapses repeated benchmark lines (-count > 1) to one result per
// name, keeping the whole row of each name's fastest ns/op run so the
// companion byte/alloc stats stay from the same execution.
func bestOf(results []Result) []Result {
	idx := make(map[string]int, len(results))
	out := results[:0]
	for _, r := range results {
		if j, ok := idx[r.Name]; ok {
			if r.NsPerOp < out[j].NsPerOp {
				out[j] = r
			}
			continue
		}
		idx[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

func loadReport(path string) Report {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", path, err)
		os.Exit(1)
	}
	return rep
}

// procSuffix returns the "-N" suffix go test appended to every name of a
// run at GOMAXPROCS=N > 1, or "" when the names do not all share one (a
// GOMAXPROCS=1 run has no suffix at all).
func procSuffix(results []Result) string {
	if len(results) == 0 {
		return ""
	}
	name := results[0].Name
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	suffix := name[i:]
	for _, r := range results[1:] {
		if !strings.HasSuffix(r.Name, suffix) {
			return ""
		}
	}
	return suffix
}

// diff prints a per-benchmark delta table (new vs old, matched by name
// without the GOMAXPROCS suffix) and reports whether every gated benchmark
// stayed within tolerance. Each gate failure is also written to stderr
// naming the benchmark and the exact metric (ns/op or allocs/op) that
// regressed, with the measured delta and the tolerance it broke — the table
// alone is too easy to misread in CI. A gate that matched no benchmark of
// both reports is a failure too: it would otherwise pass having compared
// nothing.
func diff(old, new Report, gateRe *regexp.Regexp, maxNs, maxAllocs float64) bool {
	oldSuffix, newSuffix := procSuffix(old.Results), procSuffix(new.Results)
	byName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		byName[strings.TrimSuffix(r.Name, oldSuffix)] = r
	}
	var failures []string
	gated := 0
	for _, r := range new.Results {
		key := strings.TrimSuffix(r.Name, newSuffix)
		o, ok := byName[key]
		if !ok {
			fmt.Printf("%-55s %12.0f ns/op %8d allocs/op  (new)\n", r.Name, r.NsPerOp, r.AllocsPerOp)
			continue
		}
		delete(byName, key)
		nsDelta := ratio(r.NsPerOp, o.NsPerOp)
		allocDelta := ratio(float64(r.AllocsPerOp), float64(o.AllocsPerOp))
		status := ""
		if gateRe != nil && gateRe.MatchString(r.Name) {
			gated++
			status = "  ok"
			if nsDelta > maxNs {
				status = "  REGRESSION"
				failures = append(failures, fmt.Sprintf(
					"%s: ns/op %.0f -> %.0f (%+.1f%%, tolerance %+.1f%%)",
					r.Name, o.NsPerOp, r.NsPerOp, 100*nsDelta, 100*maxNs))
			}
			// ratio() reports 0 -> N as "no change" to avoid dividing by
			// zero, which would let a zero-alloc benchmark silently start
			// allocating; that jump is always a regression.
			if allocDelta > maxAllocs || (o.AllocsPerOp == 0 && r.AllocsPerOp > 0) {
				status = "  REGRESSION"
				detail := fmt.Sprintf("%+.1f%%, tolerance %+.1f%%", 100*allocDelta, 100*maxAllocs)
				if o.AllocsPerOp == 0 {
					detail = "was zero-alloc"
				}
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op %d -> %d (%s)",
					r.Name, o.AllocsPerOp, r.AllocsPerOp, detail))
			}
		}
		fmt.Printf("%-55s %12.0f ns/op (%+6.1f%%) %8d allocs/op (%+6.1f%%)%s\n",
			r.Name, r.NsPerOp, 100*nsDelta, r.AllocsPerOp, 100*allocDelta, status)
	}
	for _, o := range byName {
		fmt.Printf("%-55s (only in baseline)\n", o.Name)
	}
	if gateRe != nil && gated == 0 {
		failures = append(failures, fmt.Sprintf("-gate %q matched no benchmark present in both reports", gateRe))
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchjson: gate failure: %s\n", f)
	}
	return len(failures) == 0
}

// ratio is (new-old)/old, treating a zero or missing old value as no change
// so fresh benchmarks never divide by zero.
func ratio(new, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

func parse(buf *bytes.Buffer) Report {
	var rep Report
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep
}

// parseLine parses one `BenchmarkX-8  1000  1234 ns/op  56 B/op  7 allocs/op`
// line; the B/op and allocs/op columns are optional.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	var r Result
	r.Name = f[0]
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = v
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = v
			}
		}
	}
	return r, r.NsPerOp > 0
}
