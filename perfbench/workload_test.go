package main

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// streamLen is how many requests the tests draw from each client stream.
const streamLen = 400

// digestBodies hashes every body a workload would send, in order, drawing
// streamLen requests from each client's stream.
func digestBodies(w *workload) [32]byte {
	h := sha256.New()
	add := func(rs []request) {
		for i := range rs {
			h.Write([]byte(rs[i].method + " " + rs[i].path + "\n"))
			h.Write(rs[i].body())
		}
	}
	add(w.warm)
	add([]request{w.first})
	add(w.open)
	for _, next := range streamsOf(w) {
		for i := 0; i < streamLen; i++ {
			add([]request{*next()})
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 2, 1)
		c, _ := generate(name, 8, 2, 1)
		if digestBodies(a) != digestBodies(b) {
			t.Errorf("%s: same seed gave different bodies", name)
		}
		if digestBodies(a) == digestBodies(c) {
			t.Errorf("%s: different seeds gave identical bodies", name)
		}
	}
}

func TestColdSolveDigestsAreFresh(t *testing.T) {
	w, err := generate("cold-solve", 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, next := range streamsOf(w) {
		for i := 0; i < streamLen; i++ {
			b := string(next().body())
			if seen[b] {
				t.Fatalf("body repeated: %.80s", b)
			}
			seen[b] = true
		}
	}
}

// Hot-mix's fresh-deadline solves stay fresh across the open schedule and
// every client's stream.
func TestHotMixFreshDeadlinesNeverRepeat(t *testing.T) {
	w, err := generate("hot-mix", 3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(r *request) {
		if r.kind != kSolve || r.insts[0].slack < hotFreshFloor {
			return
		}
		b := string(r.body())
		if seen[b] {
			t.Fatalf("fresh-deadline body repeated: slack %d", r.insts[0].slack)
		}
		seen[b] = true
	}
	for i := range w.open {
		check(&w.open[i])
	}
	for _, next := range streamsOf(w) {
		for i := 0; i < 5*streamLen; i++ {
			check(next())
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d fresh-deadline solves", len(seen))
	}
}

// session-patch gives every client a session of its own, however many
// CPUs the host has, and a client's stream does not run out.
func TestSessionPatchClientsOwnSessions(t *testing.T) {
	w, err := generate("session-patch", 1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.clients != sessCount {
		t.Fatalf("%d clients for %d sessions", w.clients, sessCount)
	}
	owner := map[int]int{}
	for c, next := range streamsOf(w) {
		for i := 0; i < 9; i++ {
			r := next()
			if o, ok := owner[r.sess]; ok && o != c {
				t.Fatalf("session %d used by clients %d and %d", r.sess, o, c)
			}
			owner[r.sess] = c
		}
	}
	if len(owner) != sessCount {
		t.Fatalf("%d of %d sessions used", len(owner), sessCount)
	}
}

func TestHotMixScheduleIsPoissonAtRate(t *testing.T) {
	w, err := generate("hot-mix", 3, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	last := w.open[len(w.open)-1].due.Seconds()
	got := float64(len(w.open)) / last
	if got < 0.95*hotRate || got > 1.05*hotRate {
		t.Fatalf("offered rate %.1f/s, want %d/s ±5%%", got, hotRate)
	}
	for i := 1; i < len(w.open); i++ {
		if w.open[i].due < w.open[i-1].due {
			t.Fatal("schedule not sorted by due time")
		}
	}
}

func TestSessionPlansStayFeasibleTrees(t *testing.T) {
	w, err := generate("session-patch", 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range streamsOf(w) {
		for i := 0; i < streamLen; i++ {
			next()
		}
	}
	for _, sp := range w.sessions[:2] {
		if len(sp.patches) == 0 {
			t.Fatalf("session %s drew no patches", sp.id)
		}
		m := newMirror(sp.graph, sp.table, sp.deadline)
		for _, pp := range sp.patches {
			for _, op := range pp.ops {
				m.apply(op)
			}
			p := m.problem()
			if !p.Graph.IsOutForest() {
				t.Fatalf("session %s left the tree class", sp.id)
			}
			if lo, _ := m.makespans(); lo > m.deadline {
				t.Fatalf("session %s infeasible: min makespan %d > deadline %d", sp.id, lo, m.deadline)
			}
		}
		if !bytes.Contains(sp.put, []byte(`"deadline"`)) {
			t.Fatalf("session PUT body lacks a deadline")
		}
	}
}

// A chain's head has one child whose subtree is everything else, so a
// re-parent draw can find no target; patch generation must still finish.
func TestRandomPatchOnChainTerminates(t *testing.T) {
	g := dfg.Chain(3)
	tab := fu.UniformTable(3, []int{1, 2}, []int64{2, 1})
	m := newMirror(g, tab, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m.randomPatch(rng)
	}
	if !m.problem().Graph.IsOutForest() {
		t.Fatal("patches left the tree class")
	}
}
