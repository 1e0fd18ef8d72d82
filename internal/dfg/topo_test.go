package dfg

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestCachedOrderDroppedOnMutation checks every mutator invalidates the
// cached order: an edge that closes a zero-delay cycle after the order was
// cached must make Validate fail, and so must a retiming that zeroes the
// delay of a cycle's only delayed edge.
func TestCachedOrderDroppedOnMutation(t *testing.T) {
	g := Chain(4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(3, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("delayed back edge rejected: %v", err)
	}
	if err := g.SetDelays(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("SetDelays closed a zero-delay cycle after the order was cached, Validate still passes")
	}

	h := Chain(3)
	if !h.IsOutForest() {
		t.Fatal("chain is not an out-forest")
	}
	h.MustAddEdge(2, 0, 0)
	if err := h.Validate(); err == nil {
		t.Fatal("AddEdge closed a zero-delay cycle after the order was cached, Validate still passes")
	}
	if _, err := h.TopoOrder(); err == nil {
		t.Fatal("TopoOrder still returns the stale order")
	}

	k := Chain(2)
	if _, err := k.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	k.Grow(1, 1)
	c := k.MustAddNode("c", "")
	k.MustAddEdge(c, 0, 0)
	order, err := k.TopoOrder()
	if err != nil || !reflect.DeepEqual(order, []NodeID{2, 0, 1}) {
		t.Fatalf("order after AddNode/AddEdge = %v, %v; want [2 0 1]", order, err)
	}
}

// TestTopoOrderCopiesAreTheCallers checks that mutating the slices
// TopoOrder and ReverseTopoOrder return leaves the cached order intact.
func TestTopoOrderCopiesAreTheCallers(t *testing.T) {
	g := RandomTree(rand.New(rand.NewSource(2)), 64)
	want, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want = append([]NodeID(nil), want...)
	a, _ := g.TopoOrder()
	for i := range a {
		a[i] = 0
	}
	if _, err := g.ReverseTopoOrder(); err != nil { // reverses a copy in place
		t.Fatal(err)
	}
	r, _ := g.ReverseTopoOrder()
	r[0] = -7
	if got, _ := g.TopoOrder(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached order corrupted by a caller: %v, want %v", got, want)
	}
	w := make([]int, g.N())
	for i := range w {
		w[i] = 1
	}
	if l, _, err := g.LongestPath(w); err != nil || l == 0 {
		t.Fatalf("LongestPath on the corrupted-copy graph: %d, %v", l, err)
	}
}

// TestCachedOrderConcurrentReaders runs the readers that share the cached
// order on one fresh graph from many goroutines; under -race this checks
// the cache's publication.
func TestCachedOrderConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 8; round++ {
		g := RandomTree(rng, 200)
		w := make([]int, g.N())
		for i := range w {
			w[i] = 1 + rng.Intn(5)
		}
		want, _, err := g.Clone().LongestPath(w)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if c%2 == 0 {
					if l, _, err := g.LongestPath(w); err != nil || l != want {
						t.Errorf("LongestPath = %d, %v; want %d", l, err, want)
					}
					return
				}
				if !g.IsOutForest() {
					t.Error("random tree is not an out-forest")
				}
			}(c)
		}
		wg.Wait()
	}
}

// TestLongestPathLengthMatchesLongestPath checks the scratch-buffer length
// pass against LongestPath on random DAGs with delayed edges, with and
// without a reusable scratch.
func TestLongestPathLengthMatchesLongestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	scratch := make([]int, 64)
	for i := 0; i < 100; i++ {
		g := RandomDAG(rng, 1+rng.Intn(60), 0.1)
		for e := 0; e < g.M(); e += 4 {
			if err := g.SetDelays(e, 1); err != nil {
				t.Fatal(err)
			}
		}
		w := make([]int, g.N())
		for v := range w {
			w[v] = rng.Intn(7)
		}
		want, _, err := g.LongestPath(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range [][]int{nil, scratch} {
			if got, err := g.LongestPathLength(w, s); err != nil || got != want {
				t.Fatalf("LongestPathLength = %d, %v; LongestPath says %d", got, err, want)
			}
		}
	}
	if l, err := New().LongestPathLength(nil, nil); err != nil || l != 0 {
		t.Fatalf("empty graph: %d, %v", l, err)
	}
	if _, err := Chain(2).LongestPathLength([]int{1}, nil); err == nil {
		t.Fatal("short weight slice accepted")
	}
}
