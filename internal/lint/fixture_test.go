package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation from a `// want `+"`regexp`"+“ comment,
// the same convention analysistest uses (with backtick quoting).
var wantRe = regexp.MustCompile("want `([^`]*)`")

// runFixture loads testdata/src/<name> as one package, runs a single
// analyzer over it, and checks the surviving diagnostics against the
// fixture's // want comments: every diagnostic must be expected on its line
// and every expectation must be matched.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := RunPackage(pkg, []*Analyzer{a})

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				wants[k] = append(wants[k], re)
			}
		}
	}

	matched := map[key]int{}
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		ok := false
		for _, re := range wants[k] {
			if re.MatchString(d.Message) {
				ok = true
				matched[k]++
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", k.file, k.line, d.Message)
		}
	}
	for k, res := range wants {
		if matched[k] < len(res) {
			t.Errorf("missing diagnostic at %s:%d: want %v", k.file, k.line, res)
		}
	}
}

// writeFixture materializes one in-memory fixture file as a package in a
// fresh temp dir and loads it.
func writeFixture(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading inline fixture: %v", err)
	}
	return pkg
}

func diagnosticsOf(pkg *Package, a *Analyzer) []string {
	var out []string
	for _, d := range RunPackage(pkg, []*Analyzer{a}) {
		out = append(out, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
	}
	return out
}

func TestCtxPropagateFixture(t *testing.T)  { runFixture(t, CtxPropagate, "ctxprop") }
func TestGuardedByFixture(t *testing.T)     { runFixture(t, GuardedBy, "guardedby") }
func TestGoroutineLifeFixture(t *testing.T) { runFixture(t, GoroutineLife, "goroutinelife") }
func TestAPIDocFixture(t *testing.T)        { runFixture(t, APIDoc, "apidoc") }
func TestRetValFixture(t *testing.T)        { runFixture(t, RetVal, "retval") }
func TestPoolSafeFixture(t *testing.T)      { runFixture(t, PoolSafe, "poolsafe") }
func TestPinPairFixture(t *testing.T)       { runFixture(t, PinPair, "pinpair") }
func TestArenaEscapeFixture(t *testing.T)   { runFixture(t, ArenaEscape, "arenaescape") }
func TestAtomicFieldFixture(t *testing.T)   { runFixture(t, AtomicField, "atomicfield") }

// TestPoolSafeRequiresPut mirrors TestGoroutineLifeRequiresJoin for the
// dataflow generation: the exact same function passes with its Put present
// and fails the moment the recycle is deleted.
func TestPoolSafeRequiresPut(t *testing.T) {
	const good = `package p

import (
	"bytes"
	"sync"
)

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func f() {
	b := pool.Get().(*bytes.Buffer)
	b.Reset()
	pool.Put(b)
}
`
	if ds := diagnosticsOf(writeFixture(t, good), PoolSafe); len(ds) != 0 {
		t.Fatalf("balanced Get/Put flagged: %v", ds)
	}
	bad := strings.Replace(good, "\tpool.Put(b)\n", "", 1)
	ds := diagnosticsOf(writeFixture(t, bad), PoolSafe)
	if len(ds) != 1 || !strings.Contains(ds[0], "not returned with Put") {
		t.Fatalf("removing pool.Put should flag the Get, got %v", ds)
	}
}

// TestPinPairRequiresRelease proves the lostcancel-class detection: an
// error return between acquire and release is flagged exactly when the
// release is missing from that path.
func TestPinPairRequiresRelease(t *testing.T) {
	const good = `package p

import "errors"

type cache struct{ m map[string]any }

func (c *cache) acquire(k string) (any, bool) { v, ok := c.m[k]; return v, ok }
func (c *cache) release(k string)             { delete(c.m, k) }

func f(c *cache, k string, fail bool) error {
	if _, ok := c.acquire(k); ok {
		if fail {
			c.release(k)
			return errors.New("x")
		}
		c.release(k)
	}
	return nil
}
`
	if ds := diagnosticsOf(writeFixture(t, good), PinPair); len(ds) != 0 {
		t.Fatalf("released-on-all-paths acquire flagged: %v", ds)
	}
	bad := strings.Replace(good, "\t\t\tc.release(k)\n", "", 1)
	ds := diagnosticsOf(writeFixture(t, bad), PinPair)
	if len(ds) != 1 || !strings.Contains(ds[0], "not released on this path") {
		t.Fatalf("removing the error-path release should flag it, got %v", ds)
	}
}

// TestGoroutineLifeRequiresJoin encodes the suite's core promise directly:
// the exact same goroutine passes with its join point present and fails the
// moment the wg.Wait() / done-channel receive is deleted.
func TestGoroutineLifeRequiresJoin(t *testing.T) {
	const waitGood = `package p

import "sync"

func f() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
}
`
	if ds := diagnosticsOf(writeFixture(t, waitGood), GoroutineLife); len(ds) != 0 {
		t.Fatalf("WaitGroup-joined goroutine flagged: %v", ds)
	}
	waitBad := strings.Replace(waitGood, "\twg.Wait()\n", "", 1)
	ds := diagnosticsOf(writeFixture(t, waitBad), GoroutineLife)
	if len(ds) != 1 || !strings.Contains(ds[0], "calls Wait") {
		t.Fatalf("removing wg.Wait() should flag the goroutine, got %v", ds)
	}

	const chanGood = `package p

func f() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
`
	if ds := diagnosticsOf(writeFixture(t, chanGood), GoroutineLife); len(ds) != 0 {
		t.Fatalf("done-channel goroutine flagged: %v", ds)
	}
	chanBad := strings.Replace(chanGood, "\t<-done\n", "", 1)
	ds = diagnosticsOf(writeFixture(t, chanBad), GoroutineLife)
	if len(ds) != 1 || !strings.Contains(ds[0], "signals a channel") {
		t.Fatalf("removing the done-channel receive should flag the goroutine, got %v", ds)
	}
}

// TestSuppressionNeedsReason verifies that bare markers do not suppress:
// //hetsynth:ignore, // detached: and // hetsynth:pool-escape all require a
// justification.
func TestSuppressionNeedsReason(t *testing.T) {
	const src = `package p

import "errors"

func fail() error { return errors.New("x") }

func f() {
	//hetsynth:ignore retval
	_ = fail()
}

func g() {
	// detached:
	go func() {}()
}
`
	pkg := writeFixture(t, src)
	if ds := diagnosticsOf(pkg, RetVal); len(ds) != 1 {
		t.Errorf("reasonless //hetsynth:ignore should not suppress retval, got %v", ds)
	}
	if ds := diagnosticsOf(pkg, GoroutineLife); len(ds) != 1 {
		t.Errorf("reasonless // detached: should not suppress goroutinelife, got %v", ds)
	}

	const poolSrc = `package p

import (
	"bytes"
	"sync"
)

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

type h struct{ b *bytes.Buffer }

func f(x *h) {
	// hetsynth:pool-escape
	x.b = pool.Get().(*bytes.Buffer)
}
`
	if ds := diagnosticsOf(writeFixture(t, poolSrc), PoolSafe); len(ds) != 1 {
		t.Errorf("reasonless // hetsynth:pool-escape should not suppress poolsafe, got %v", ds)
	}
	withReason := strings.Replace(poolSrc, "// hetsynth:pool-escape", "// hetsynth:pool-escape held until close", 1)
	if ds := diagnosticsOf(writeFixture(t, withReason), PoolSafe); len(ds) != 0 {
		t.Errorf("justified pool-escape annotation should suppress poolsafe, got %v", ds)
	}
}
