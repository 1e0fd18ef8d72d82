package dfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"hetsynth/internal/jsonscan"
)

// jsonGraph is the on-disk form of a Graph. Nodes are referenced by name so
// that files stay readable and stable under reordering.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Name string `json:"name"`
	Op   string `json:"op,omitempty"`
}

type jsonEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Delays int    `json:"delays,omitempty"`
}

// MarshalJSON serializes the graph with nodes in ID order and edges in
// insertion order.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Nodes: make([]jsonNode, 0, len(g.nodes)),
		Edges: make([]jsonEdge, 0, len(g.edges)),
	}
	for _, n := range g.nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{Name: n.Name, Op: n.Op})
	}
	for _, e := range g.edges {
		jg.Edges = append(jg.Edges, jsonEdge{
			From:   g.nodes[e.From].Name,
			To:     g.nodes[e.To].Name,
			Delays: e.Delays,
		})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON replaces the receiver with the decoded graph. Input in the
// form MarshalJSON emits takes a one-pass, reflection-free path
// (ParseJSONFast); anything else — case-variant or unknown keys, escapes,
// nulls, or a graph the fast path rejects — goes through encoding/json,
// which defines the accepted language and every error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	if fresh, n, ok := ParseJSONFast(data); ok {
		s := jsonscan.Scanner{B: data, I: n}
		if s.End() {
			g.replace(fresh)
			return nil
		}
	}
	fresh, err := unmarshalSlow(data)
	if err != nil {
		return err
	}
	g.replace(fresh)
	return nil
}

// unmarshalSlow is the encoding/json graph decoder: the definition of the
// accepted input language, and the oracle the fast path is fuzzed against.
func unmarshalSlow(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("dfg: decode: %w", err)
	}
	fresh := New()
	for _, n := range jg.Nodes {
		if _, err := fresh.AddNode(n.Name, n.Op); err != nil {
			return nil, err
		}
	}
	for _, e := range jg.Edges {
		u, ok := fresh.Lookup(e.From)
		if !ok {
			return nil, fmt.Errorf("dfg: edge references unknown node %q", e.From)
		}
		v, ok := fresh.Lookup(e.To)
		if !ok {
			return nil, fmt.Errorf("dfg: edge references unknown node %q", e.To)
		}
		if err := fresh.AddEdge(u, v, e.Delays); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// replace makes g the graph src describes, dropping g's cached order.
func (g *Graph) replace(src *Graph) {
	g.nodes, g.edges, g.succ, g.pred, g.byName = src.nodes, src.edges, src.succ, src.pred, src.byName
	g.invalidate()
}

// span is a [start, end) byte range of the input being decoded.
type span struct{ start, end int }

// rawNode and rawEdge are one parsed node or edge object of the fast
// decoder, held as byte ranges until the whole graph value has been read.
type rawNode struct{ name, op span }

type rawEdge struct {
	from, to span
	delays   int
}

// fastScratch is the fast decoder's per-call working storage, pooled so a
// steady stream of decodes allocates only the graph it returns.
type fastScratch struct {
	nodes []rawNode
	edges []rawEdge
	deg   []int
}

var fastPool = sync.Pool{New: func() any { return new(fastScratch) }}

// The keys the fast decoder reads, in MarshalJSON's spelling.
var (
	graphKeys = []string{"nodes", "edges"}
	nodeKeys  = []string{"name", "op"}
	edgeKeys  = []string{"from", "to", "delays"}
)

// ParseJSONFast decodes the graph value at the start of data (after
// optional whitespace) in one pass, provided it is in the form MarshalJSON
// emits: an object with at most one each of the lowercase keys "nodes" and
// "edges", node objects with "name" and "op", edge objects with "from",
// "to" and "delays", unescaped valid-UTF-8 strings and integer delays. It
// returns the graph and the number of bytes of data consumed.
//
// ok is false when the value leaves that form or does not describe a valid
// graph (empty or duplicate names, unknown endpoints, negative delays,
// zero-delay self-loops); the caller must then decode with UnmarshalJSON,
// whose encoding/json path accepts exactly the same graphs plus the rest of
// the JSON language and produces the errors. The returned graph shares no
// memory with data: names live in one freshly allocated string.
func ParseJSONFast(data []byte) (g *Graph, n int, ok bool) {
	sc := fastPool.Get().(*fastScratch)
	defer fastPool.Put(sc)
	sc.nodes, sc.edges = sc.nodes[:0], sc.edges[:0]

	s := jsonscan.Scanner{B: data}
	str := func(dst *span) bool {
		b, ok := s.String()
		*dst = span{s.I - 1 - len(b), s.I - 1}
		return ok
	}
	node := func() bool {
		var nd rawNode
		_, ok := s.Object(nodeKeys, func(i int) bool {
			if i == 0 {
				return str(&nd.name)
			}
			return str(&nd.op)
		})
		if !ok || nd.name.end == nd.name.start {
			return false
		}
		sc.nodes = append(sc.nodes, nd)
		return true
	}
	edge := func() bool {
		var ed rawEdge
		seen, ok := s.Object(edgeKeys, func(i int) bool {
			switch i {
			case 0:
				return str(&ed.from)
			case 1:
				return str(&ed.to)
			}
			d, ok := s.Int()
			ed.delays = int(d)
			return ok && d >= 0 && int64(ed.delays) == d
		})
		if !ok || seen&3 != 3 {
			return false
		}
		sc.edges = append(sc.edges, ed)
		return true
	}
	if _, ok := s.Object(graphKeys, func(i int) bool {
		if i == 0 {
			return s.Array(node)
		}
		return s.Array(edge)
	}); !ok {
		return nil, 0, false
	}
	g, ok = sc.build(data)
	return g, s.I, ok
}

// build materializes the parsed nodes and edges as a Graph in bulk: one
// string holds every name, op strings are interned, and the succ/pred
// lists are carved from one backing array with full slice expressions, so a
// later AddEdge that outgrows a list copies it instead of overwriting the
// neighbour's entries.
func (sc *fastScratch) build(data []byte) (*Graph, bool) {
	nn, m := len(sc.nodes), len(sc.edges)
	size := 0
	for _, nd := range sc.nodes {
		size += nd.name.end - nd.name.start
	}
	var names strings.Builder
	names.Grow(size)
	for _, nd := range sc.nodes {
		names.Write(data[nd.name.start:nd.name.end])
	}
	all := names.String()

	// succ and pred share one backing array too; succ's capacity ends where
	// pred begins, so AddNode's append to succ reallocates.
	lists := make([][]int, 2*nn)
	g := &Graph{
		nodes:  make([]Node, nn),
		edges:  make([]Edge, m),
		succ:   lists[:nn:nn],
		pred:   lists[nn:],
		byName: make(map[string]NodeID, nn),
	}
	ops := map[string]string{}
	at := 0
	for i, nd := range sc.nodes {
		name := all[at : at+nd.name.end-nd.name.start]
		at += len(name)
		if _, dup := g.byName[name]; dup {
			return nil, false
		}
		g.byName[name] = NodeID(i)
		op := ""
		if b := data[nd.op.start:nd.op.end]; len(b) > 0 {
			var hit bool
			if op, hit = ops[string(b)]; !hit {
				op = string(b)
				ops[op] = op
			}
		}
		g.nodes[i] = Node{ID: NodeID(i), Name: name, Op: op}
	}

	// deg holds out-degrees in [0, nn) and in-degrees in [nn, 2nn).
	if cap(sc.deg) < 2*nn {
		sc.deg = make([]int, 2*nn)
	}
	deg := sc.deg[:2*nn]
	clear(deg)
	for i, ed := range sc.edges {
		u, ok1 := g.byName[string(data[ed.from.start:ed.from.end])]
		v, ok2 := g.byName[string(data[ed.to.start:ed.to.end])]
		if !ok1 || !ok2 || (u == v && ed.delays == 0) {
			return nil, false
		}
		g.edges[i] = Edge{From: u, To: v, Delays: ed.delays}
		deg[u]++
		deg[nn+int(v)]++
	}
	adj := make([]int, 2*m)
	for i, d := range deg {
		if d > 0 {
			lists[i], adj = adj[:0:d], adj[d:]
		}
	}
	for i, e := range g.edges {
		g.succ[e.From] = append(g.succ[e.From], i)
		g.pred[e.To] = append(g.pred[e.To], i)
	}
	return g, true
}

// ReadJSON decodes a graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dfg: read: %w", err)
	}
	g := New()
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteJSON encodes the graph to w with indentation.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// DOT renders the graph in Graphviz dot syntax. Labels carry an optional
// annotation per node (e.g. the assigned FU type); pass nil for plain names.
// Delayed edges are drawn dashed with the delay count as label.
func (g *Graph) DOT(title string, annotate func(NodeID) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [shape=circle, fontsize=11];\n")
	for _, n := range g.nodes {
		label := n.Name
		if n.Op != "" {
			label += "\\n" + n.Op
		}
		if annotate != nil {
			if extra := annotate(n.ID); extra != "" {
				label += "\\n" + extra
			}
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"];\n", n.ID, label)
	}
	for _, e := range g.edges {
		if e.Delays == 0 {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, label=\"%d\"];\n", e.From, e.To, e.Delays)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String gives a compact one-line description, useful in test failures.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dfg{%d nodes", len(g.nodes))
	names := make([]string, 0, len(g.edges))
	for _, e := range g.edges {
		s := fmt.Sprintf("%s->%s", g.nodes[e.From].Name, g.nodes[e.To].Name)
		if e.Delays > 0 {
			s += fmt.Sprintf("[%d]", e.Delays)
		}
		names = append(names, s)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("; ")
		b.WriteString(strings.Join(names, " "))
	}
	b.WriteString("}")
	return b.String()
}
