package dfg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hetsynth/internal/jsonscan"
)

// sameGraph reports whether two graphs have identical nodes (IDs, names,
// ops), edge order, delays and adjacency lists.
func sameGraph(a, b *Graph) bool {
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) || !reflect.DeepEqual(a.Edges(), b.Edges()) {
		return false
	}
	for v := 0; v < a.N(); v++ {
		id := NodeID(v)
		if !reflect.DeepEqual(a.SuccAll(id), b.SuccAll(id)) || !reflect.DeepEqual(a.PredAll(id), b.PredAll(id)) {
			return false
		}
		if got, ok := b.Lookup(a.Node(id).Name); !ok || got != id {
			return false
		}
	}
	return true
}

// checkAgainstOracle asserts the decode contract on one input: UnmarshalJSON
// and the encoding/json oracle accept and reject the same inputs, with the
// same error text and identical graphs; and whatever ParseJSONFast accepts,
// the oracle accepts as the same graph.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, werr := unmarshalSlow(data)
	g := New()
	gerr := g.UnmarshalJSON(data)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("UnmarshalJSON err %v, oracle err %v on %q", gerr, werr, data)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("error text differs: %q vs oracle %q on %q", gerr, werr, data)
	case gerr == nil && !sameGraph(g, want):
		t.Fatalf("decoded graphs differ on %q:\n%s\nvs oracle\n%s", data, g, want)
	}
	fast, n, ok := ParseJSONFast(data)
	if !ok {
		return
	}
	prefix, err := unmarshalSlow(data[:n])
	if err != nil {
		t.Fatalf("fast path accepted %q, oracle rejects it: %v", data[:n], err)
	}
	if !sameGraph(fast, prefix) {
		t.Fatalf("fast path and oracle disagree on %q:\n%s\nvs\n%s", data[:n], fast, prefix)
	}
	if s := (jsonscan.Scanner{B: data, I: n}); s.End() && !sameGraph(fast, g) {
		t.Fatalf("UnmarshalJSON did not return the fast path's graph on %q", data)
	}
}

// fastJSONCases pairs inputs with whether they lie in the fast subset.
var fastJSONCases = []struct {
	in   string
	fast bool
}{
	{`{"nodes":[{"name":"a","op":"mul"},{"name":"b"}],"edges":[{"from":"a","to":"b"}]}`, true},
	{`{"nodes":[{"name":"a"}],"edges":[{"from":"a","to":"a","delays":2}]}`, true},
	{` { "edges" : [ { "to" : "b" , "from" : "a" , "delays" : 0 } ] ,` + "\n\t\r" + ` "nodes" : [ {"op":"add","name":"a"}, {"name":"b"} ] } `, true},
	{`{"nodes":[],"edges":[]}`, true},
	{`{}`, true},
	{`{"nodes":[{"name":"é→ü","op":"мул"}]}`, true},
	{`{"nodes":[{"name":"a","op":""}]}`, true},
	{`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":-0}]}`, true},
	// Outside the subset: encoding/json decides, fast path declines.
	{`{"Nodes":[{"name":"a"}]}`, false},
	{`{"nodes":[{"NAME":"a"}]}`, false},
	{`{"nodes":[{"name":"a\u0062"}]}`, false},
	{`{"nodes":[{"name":"a\"b"}]}`, false},
	{`{"nodes":[{"name":"a","op":null}]}`, false},
	{`{"nodes":null}`, false},
	{`null`, false},
	{`{"nodes":[{"name":"a"}],"extra":1}`, false},
	{`{"nodes":[{"name":"a"}],"nodes":[{"name":"b"}]}`, false},
	{`{"nodes":[{"name":"a","name":"b"}]}`, false},
	{`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":1.0}]}`, false},
	{`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":1e0}]}`, false},
	{`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":01}]}`, false},
	{`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":99999999999999999999}]}`, false},
	{"{\"nodes\":[{\"name\":\"a\xff\"}]}", false},
	{"{\"nodes\":[{\"name\":\"a\x01\"}]}", false},
	{`{"nodes":[{"name":"a"}]}x`, true}, // a valid prefix; the trailing byte is UnmarshalJSON's to reject
	// In the subset's syntax but not a valid graph: the oracle supplies the error.
	{`{"nodes":[{"name":""}]}`, false},
	{`{"nodes":[{"op":"add"}]}`, false},
	{`{"nodes":[{"name":"a"},{"name":"a"}]}`, false},
	{`{"nodes":[{"name":"a"}],"edges":[{"from":"a","to":"b"}]}`, false},
	{`{"nodes":[{"name":"a"}],"edges":[{"to":"a"}]}`, false},
	{`{"nodes":[{"name":"a"}],"edges":[{"from":"a","to":"a"}]}`, false},
	{`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":-1}]}`, false},
	{`{"nodes":[{"name":"a"},]}`, false},
	{`{"nodes":[{"name":"a"}]`, false},
	{`[]`, false},
	{``, false},
}

func TestFastJSONSubsetMatchesOracle(t *testing.T) {
	for _, c := range fastJSONCases {
		if _, _, ok := ParseJSONFast([]byte(c.in)); ok != c.fast {
			t.Errorf("ParseJSONFast ok=%v, want %v on %q", ok, c.fast, c.in)
		}
		checkAgainstOracle(t, []byte(c.in))
	}
}

// TestFastJSONRoundTripsGenerators decodes what the generators and both
// encoders emit: every such input must take the fast path and come back
// identical to the graph that was encoded.
func TestFastJSONRoundTripsGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		var g *Graph
		if i%2 == 0 {
			g = RandomTree(rng, 1+rng.Intn(300))
		} else {
			g = RandomDAG(rng, 2+rng.Intn(40), 0.2)
			for e := 0; e < g.M(); e += 3 {
				if err := g.SetDelays(e, 1+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		compact, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := g.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{compact, indented.Bytes()} {
			fast, _, ok := ParseJSONFast(data)
			if !ok {
				t.Fatalf("encoder output left the fast subset: %.120s", data)
			}
			if !sameGraph(fast, g) {
				t.Fatalf("fast decode changed the graph:\n%s\nvs\n%s", fast, g)
			}
			checkAgainstOracle(t, data)
		}
	}
}

// TestFastJSONNamesDoNotAliasInput checks the decoded names survive the
// input buffer being overwritten — request bodies are pooled and reused.
func TestFastJSONNamesDoNotAliasInput(t *testing.T) {
	data := []byte(`{"nodes":[{"name":"alpha","op":"mul"},{"name":"beta","op":"add"}],"edges":[{"from":"alpha","to":"beta"}]}`)
	g := New()
	if err := g.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if g.Node(0).Name != "alpha" || g.Node(1).Name != "beta" || g.Node(0).Op != "mul" || g.Node(1).Op != "add" {
		t.Fatalf("names changed with the input buffer: %+v", g.Nodes())
	}
	if id, ok := g.Lookup("beta"); !ok || id != 1 {
		t.Fatalf("Lookup(beta) = %d, %v after the input buffer changed", id, ok)
	}
}

// TestFastJSONGraphGrowsSafely checks that the bulk-built adjacency lists,
// carved from one shared array, never clobber each other when the graph
// keeps growing after decoding.
func TestFastJSONGraphGrowsSafely(t *testing.T) {
	data := []byte(`{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"c"},{"from":"a","to":"c"}]}`)
	g := New()
	if err := g.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	want := g.Clone()
	d := g.MustAddNode("d", "")
	g.MustAddEdge(0, d, 0) // a's out-list is full: must copy, not spill into b's
	g.MustAddEdge(d, 1, 1)
	g.MustAddEdge(2, d, 1) // c's in-list ends where the array ends
	want.MustAddNode("d", "")
	want.MustAddEdge(0, d, 0)
	want.MustAddEdge(d, 1, 1)
	want.MustAddEdge(2, d, 1)
	if !sameGraph(g, want) {
		t.Fatalf("grown decoded graph differs from grown hand-built one:\n%s\nvs\n%s", g, want)
	}
}

// TestFastJSONDecodeAllocs proves a generated tree takes the fast path: the
// encoding/json decoder spends about six allocations per node, the fast
// path a fixed handful per graph.
func TestFastJSONDecodeAllocs(t *testing.T) {
	g := RandomTree(rand.New(rand.NewSource(1)), 2047)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := New().UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("2047-node tree decode: %.0f allocs", allocs)
	if allocs > 100 {
		t.Fatalf("2047-node tree decode spends %.0f allocs, budget 100: the fast path was not taken", allocs)
	}
}

// FuzzGraphJSONDifferential checks the fast graph decoder against the
// encoding/json oracle: both accept and reject the same inputs, and
// accepted inputs decode to identical nodes, ops, edge order and delays.
func FuzzGraphJSONDifferential(f *testing.F) {
	for _, c := range fastJSONCases {
		f.Add([]byte(c.in))
	}
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*Graph{RandomTree(rng, 12), RandomDAG(rng, 8, 0.3), Chain(4)} {
		data, err := g.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(fmt.Sprintf(`{"nodes":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","delays":%d}]}`, 1<<40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}
