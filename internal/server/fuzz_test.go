package server

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// decodeRequestSeeds covers both decode paths: bodies in the one-pass
// walker's subset and bodies only encoding/json accepts or rejects.
var decodeRequestSeeds = []string{
	`{"bench":"elliptic","seed":1,"slack":4}`,
	`{"bench":"volterra","seed":9,"slack":2,"algorithm":"anytime","timeout_ms":50}`,
	`{"graph":{"nodes":[{"name":"a","op":"add"}],"edges":[]},"table":{"time":[[1]],"cost":[[2]]},"deadline":3}`,
	`{"graph":{"nodes":[{"name":"a","op":"add"},{"name":"b","op":"mul"}],"edges":[{"from":"a","to":"b"}]},"seed":3,"types":2,"slack":1,"schedule":true}`,
	` {"slack" : 2 , "table":{"cost":[[2,1],[3,1]],"time":[[1,2],[1,3]]}, "graph" : {"edges":[{"from":"a","to":"b","delays":0}],"nodes":[{"name":"a"},{"name":"b"}]}} `,
	`{"graph":{"nodes":[{"name":"a"}]},"bench":"diffeq","seed":1,"slack":1}`,
	`{"graph":{"nodes":[]},"seed":1,"slack":1}`,
	`{"graph":{"nodes":[{"name":"a"},{"name":"a"}]},"seed":1,"slack":1}`,
	`{"graph":{"nodes":[{"name":"ab"}]},"seed":1,"slack":1}`,
	`{"Graph":{"nodes":[{"name":"a"}]},"seed":1,"slack":1}`,
	`{"graph":{"nodes":[{"name":"a"}]},"seed":1,"slack":1,"slack":2}`,
	`{"graph":{"nodes":[{"name":"a"}]},"table":{"time":[[1,2]],"cost":[[1]]},"deadline":4}`,
	`{"graph":{"nodes":[{"name":"a"}]},"table":{"time":[null],"cost":[[1]]},"deadline":4}`,
	`{"graph":{"nodes":[{"name":"a"}]},"seed":null,"slack":1}`,
	`{"graph":{"nodes":[{"name":"a"}]},"seed":1.5,"slack":1}`,
	`{"graph":{"nodes":[{"name":"a"}]},"seed":1,"slack":1}]`,
	`{"bench":"diffeq","catalog":"generic3","deadline":40,"schedule":true}`,
	`{"bench":`,
	`{"bench":"elliptic","seed":1,"deadline":-5}`,
	`{"bench":"elliptic","seed":1,"slack":4}{"x":1}`,
	`{"bench":"elliptic","seed":1,"deadline":2147483999}`,
	`{"bench":"elliptic","seed":1,"slack":4,"types":99}`,
	`{"bench":"elliptic","seed":1,"slack":4,"unknown":1}`,
	`[]`,
}

// FuzzDecodeRequest throws arbitrary bodies at the request decoder: malformed
// input must surface as a 400 apiError (never a panic or a foreign error
// type), and any accepted body must resolve deterministically — the same
// bytes re-decoded yield the same canonical cache keys. It is also the
// differential check of the one-pass solve decode: the node's decoder and
// the encoding/json decoder (decodeSolveRequestJSON) must accept and reject
// the same bodies with the same message, and accepted bodies must resolve
// to the same problem and canonical keys.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeRequestSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSolveRequest(strings.NewReader(body))
		oracle, oerr := decodeSolveRequestJSON([]byte(body))
		if (err == nil) != (oerr == nil) {
			t.Fatalf("decoder err %v, encoding/json decoder err %v", err, oerr)
		}
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("decode error is %T (%v), want *apiError", err, err)
			}
			if ae.Status != 400 {
				t.Fatalf("decode rejection carries status %d, want 400", ae.Status)
			}
			if err.Error() != oerr.Error() {
				t.Fatalf("rejection differs: %q vs encoding/json %q", err, oerr)
			}
			return
		}
		if spec.prob.Validate() != nil {
			t.Fatalf("decoder accepted an invalid problem: %v", spec.prob.Validate())
		}
		if spec.key == "" || spec.instKey == "" {
			t.Fatal("accepted spec with empty canonical keys")
		}
		sameSpec(t, spec, oracle)
		again, err := decodeSolveRequest(strings.NewReader(body))
		if err != nil {
			t.Fatalf("body accepted once, rejected on re-decode: %v", err)
		}
		if spec.key != again.key || spec.instKey != again.instKey {
			t.Fatalf("canonical keys unstable across decodes: (%s,%s) vs (%s,%s)",
				spec.key, spec.instKey, again.key, again.instKey)
		}
		if spec.anytime != (spec.algoName == "anytime") {
			t.Fatalf("anytime flag %v inconsistent with algorithm %q", spec.anytime, spec.algoName)
		}
	})
}

// sameSpec fails unless two decodes resolved to the same problem (graph
// nodes and edges, table, deadline), options and canonical keys.
func sameSpec(t *testing.T, got, want *solveSpec) {
	t.Helper()
	if got.key != want.key || got.instKey != want.instKey {
		t.Fatalf("canonical keys differ: (%s,%s) vs encoding/json (%s,%s)", got.key, got.instKey, want.key, want.instKey)
	}
	if got.algoName != want.algoName || got.schedule != want.schedule || got.timeout != want.timeout ||
		got.tree != want.tree || got.anytime != want.anytime || got.prob.Deadline != want.prob.Deadline {
		t.Fatalf("resolved options differ: %+v vs encoding/json %+v", got, want)
	}
	g, w := got.prob.Graph, want.prob.Graph
	if !reflect.DeepEqual(g.Nodes(), w.Nodes()) || !reflect.DeepEqual(g.Edges(), w.Edges()) {
		t.Fatalf("resolved graphs differ: %s vs encoding/json %s", g, w)
	}
	if !reflect.DeepEqual(got.prob.Table, want.prob.Table) {
		t.Fatalf("resolved tables differ: %+v vs encoding/json %+v", got.prob.Table, want.prob.Table)
	}
}
