package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runDiff captures diff's stderr (where gate failures go) while discarding
// the stdout table.
func runDiff(t *testing.T, old, new Report, gate string, maxNs, maxAllocs float64) (bool, string) {
	t.Helper()
	origOut, origErr := os.Stdout, os.Stderr
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devnull, w
	pass := diff(old, new, regexp.MustCompile(gate), maxNs, maxAllocs)
	w.Close()
	os.Stdout, os.Stderr = origOut, origErr
	devnull.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return pass, string(out)
}

func TestDiffGateFailureNamesBenchmarkAndMetric(t *testing.T) {
	old := Report{Results: []Result{
		{Name: "BenchmarkSolve-8", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "BenchmarkCachedPath-8", NsPerOp: 50, AllocsPerOp: 0},
	}}
	// Solve regresses on time only; CachedPath regresses on allocs only.
	cur := Report{Results: []Result{
		{Name: "BenchmarkSolve-8", NsPerOp: 200, AllocsPerOp: 2},
		{Name: "BenchmarkCachedPath-8", NsPerOp: 50, AllocsPerOp: 3},
	}}
	pass, stderr := runDiff(t, old, cur, "Benchmark", 0.10, 0.0)
	if pass {
		t.Fatal("regressed benchmarks must fail the gate")
	}
	if !strings.Contains(stderr, "BenchmarkSolve-8: ns/op 100 -> 200") {
		t.Errorf("failure output must name BenchmarkSolve-8 and its ns/op delta, got:\n%s", stderr)
	}
	if strings.Contains(stderr, "BenchmarkSolve-8: allocs/op") {
		t.Errorf("BenchmarkSolve-8 allocs did not regress, yet stderr blames allocs/op:\n%s", stderr)
	}
	if !strings.Contains(stderr, "BenchmarkCachedPath-8: allocs/op 0 -> 3") {
		t.Errorf("failure output must name BenchmarkCachedPath-8 and its allocs/op delta, got:\n%s", stderr)
	}
	if strings.Contains(stderr, "BenchmarkCachedPath-8: ns/op") {
		t.Errorf("BenchmarkCachedPath-8 time did not regress, yet stderr blames ns/op:\n%s", stderr)
	}
	if !strings.Contains(stderr, "tolerance") {
		t.Errorf("failure output should state the broken tolerance, got:\n%s", stderr)
	}
}

func TestDiffWithinToleranceIsQuiet(t *testing.T) {
	old := Report{Results: []Result{{Name: "BenchmarkSolve-8", NsPerOp: 100, AllocsPerOp: 2}}}
	cur := Report{Results: []Result{{Name: "BenchmarkSolve-8", NsPerOp: 104, AllocsPerOp: 2}}}
	pass, stderr := runDiff(t, old, cur, "Benchmark", 0.10, 0.0)
	if !pass {
		t.Fatal("within-tolerance run must pass the gate")
	}
	if stderr != "" {
		t.Errorf("passing gate should write nothing to stderr, got:\n%s", stderr)
	}
}

func TestDiffMatchesAcrossGOMAXPROCSSuffixes(t *testing.T) {
	// A baseline recorded at GOMAXPROCS=1 has no suffix; a run on a 2-CPU
	// host names every benchmark with -2. The diff must still pair them up
	// and gate, and must leave a GOMAXPROCS=1 name ending in digits alone.
	old := Report{Results: []Result{
		{Name: "BenchmarkSolve/conc1", NsPerOp: 100, AllocsPerOp: 2},
		{Name: "BenchmarkRoute", NsPerOp: 40, AllocsPerOp: 0},
		{Name: "BenchmarkSize/n-255", NsPerOp: 10, AllocsPerOp: 1},
	}}
	cur := Report{Results: []Result{
		{Name: "BenchmarkSolve/conc1-2", NsPerOp: 300, AllocsPerOp: 2},
		{Name: "BenchmarkRoute-2", NsPerOp: 41, AllocsPerOp: 0},
		{Name: "BenchmarkSize/n-255-2", NsPerOp: 10, AllocsPerOp: 1},
	}}
	pass, stderr := runDiff(t, old, cur, "Benchmark", 0.25, 0.10)
	if pass {
		t.Fatal("a 3x ns/op regression behind a -2 suffix must fail the gate")
	}
	if !strings.Contains(stderr, "BenchmarkSolve/conc1-2: ns/op 100 -> 300") {
		t.Errorf("failure output must name the regressed benchmark, got:\n%s", stderr)
	}
	if strings.Contains(stderr, "BenchmarkRoute") || strings.Contains(stderr, "BenchmarkSize") || strings.Contains(stderr, "matched no benchmark") {
		t.Errorf("only BenchmarkSolve regressed, got:\n%s", stderr)
	}
	// The reverse direction (suffixed baseline, plain run) pairs up too.
	if pass, stderr := runDiff(t, cur, old, "BenchmarkRoute|BenchmarkSize", 0.25, 0.10); !pass {
		t.Errorf("within-tolerance benchmarks across suffixes must pass, got:\n%s", stderr)
	}
}

func TestDiffGateThatComparesNothingFails(t *testing.T) {
	old := Report{Results: []Result{{Name: "BenchmarkSolve", NsPerOp: 100}}}
	cur := Report{Results: []Result{{Name: "BenchmarkOther-2", NsPerOp: 100}}}
	pass, stderr := runDiff(t, old, cur, "BenchmarkSolve", 0.25, 0.10)
	if pass {
		t.Fatal("a gate with no benchmark in both reports must fail")
	}
	if !strings.Contains(stderr, "matched no benchmark") {
		t.Errorf("failure output must say the gate compared nothing, got:\n%s", stderr)
	}
	// Without -gate, disjoint reports are only a table.
	origOut := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	ok := diff(old, cur, nil, 0.25, 0.10)
	os.Stdout = origOut
	devnull.Close()
	if !ok {
		t.Error("an ungated diff must not fail")
	}
}
