// Package dfg implements the data-flow-graph model used throughout the
// library.
//
// A DFG is a node-weighted directed graph G = (V, E, d). Nodes stand for
// operations of a DSP application; an edge (u, v) with delay count d(u, v)
// expresses a precedence between u and v: zero delays mean an
// intra-iteration dependence, one or more delays mean the dependence spans
// that many loop iterations. The assignment and scheduling phases operate on
// the DAG portion of a DFG, which is the subgraph induced by the zero-delay
// edges; the delayed edges matter only to the retiming extension.
//
// Graphs are mutable while being built and are validated on demand. All
// algorithms in sibling packages treat a *Graph as immutable once built.
package dfg

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a node within one Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1 in insertion order, which lets per-node data live in
// plain slices.
type NodeID int

// None is the sentinel returned when a node lookup fails.
const None NodeID = -1

// Node is one operation of the application.
type Node struct {
	ID   NodeID
	Name string // unique human-readable label, e.g. "A" or "mul3"
	Op   string // operation class, e.g. "mul", "add"; may be empty
}

// Edge is a precedence between two operations. Delays is the number of
// inter-iteration delays on the edge; zero means same-iteration precedence.
type Edge struct {
	From   NodeID
	To     NodeID
	Delays int
}

// Graph is a mutable data-flow graph.
type Graph struct {
	nodes  []Node
	edges  []Edge
	succ   [][]int // node -> indices into edges, outgoing
	pred   [][]int // node -> indices into edges, incoming
	byName map[string]NodeID

	// topo caches the DAG portion's topological order (or its cycle error)
	// for the graph as it stands. It is computed on first use and dropped
	// by every mutator, so concurrent readers of a built graph share one
	// sort; the cached slice itself is never handed out.
	topo atomic.Pointer[topoResult]
}

// topoResult is one computed topological order or the reason there is none.
type topoResult struct {
	order []NodeID
	err   error
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// Grow preallocates capacity for at least nodes more nodes and edges more
// edges, so bulk builders (expansion, transpose, benchmark construction) pay
// one allocation per backing array instead of a geometric growth series.
// Growing is advisory: exceeding the hint stays correct, merely slower.
func (g *Graph) Grow(nodes, edges int) {
	g.invalidate()
	if nodes > 0 {
		g.nodes = append(make([]Node, 0, len(g.nodes)+nodes), g.nodes...)
		g.succ = append(make([][]int, 0, len(g.succ)+nodes), g.succ...)
		g.pred = append(make([][]int, 0, len(g.pred)+nodes), g.pred...)
		if len(g.byName) == 0 {
			g.byName = make(map[string]NodeID, nodes)
		}
	}
	if edges > 0 {
		g.edges = append(make([]Edge, 0, len(g.edges)+edges), g.edges...)
	}
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.nodes) }

// M reports the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddNode appends a node with the given name and operation class and returns
// its ID. Duplicate names are rejected so that serialized graphs round-trip
// unambiguously.
func (g *Graph) AddNode(name, op string) (NodeID, error) {
	if name == "" {
		return None, errors.New("dfg: empty node name")
	}
	if _, dup := g.byName[name]; dup {
		return None, fmt.Errorf("dfg: duplicate node name %q", name)
	}
	g.invalidate()
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Op: op})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.byName[name] = id
	return id, nil
}

// MustAddNode is AddNode for hand-built graphs; it panics on error.
func (g *Graph) MustAddNode(name, op string) NodeID {
	id, err := g.AddNode(name, op)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge appends an edge from u to v carrying the given number of delays.
// Self-loops are legal only when they carry at least one delay (a zero-delay
// self-loop could never be scheduled).
func (g *Graph) AddEdge(u, v NodeID, delays int) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("dfg: edge (%d,%d) references unknown node", u, v)
	}
	if delays < 0 {
		return fmt.Errorf("dfg: edge (%d,%d) has negative delay %d", u, v, delays)
	}
	if u == v && delays == 0 {
		return fmt.Errorf("dfg: zero-delay self-loop on node %d", u)
	}
	g.invalidate()
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: u, To: v, Delays: delays})
	g.succ[u] = append(g.succ[u], idx)
	g.pred[v] = append(g.pred[v], idx)
	return nil
}

// MustAddEdge is AddEdge for hand-built graphs; it panics on error.
func (g *Graph) MustAddEdge(u, v NodeID, delays int) {
	if err := g.AddEdge(u, v, delays); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.nodes) }

// Node returns the node with the given ID. It panics on an invalid ID, which
// always indicates a programming error since IDs only come from this graph.
func (g *Graph) Node(v NodeID) Node {
	if !g.valid(v) {
		panic(fmt.Sprintf("dfg: invalid node id %d (graph has %d nodes)", v, len(g.nodes)))
	}
	return g.nodes[v]
}

// Lookup resolves a node name to its ID; ok is false if the name is unknown.
func (g *Graph) Lookup(name string) (id NodeID, ok bool) {
	id, ok = g.byName[name]
	if !ok {
		id = None
	}
	return id, ok
}

// Nodes returns a copy of the node list in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Edge returns the i-th edge in insertion order.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// SetDelays replaces the delay count of edge i. It is used by the retiming
// extension, which rebalances delays without touching the topology.
func (g *Graph) SetDelays(i, delays int) error {
	if i < 0 || i >= len(g.edges) {
		return fmt.Errorf("dfg: edge index %d out of range", i)
	}
	if delays < 0 {
		return fmt.Errorf("dfg: negative delay %d", delays)
	}
	if g.edges[i].From == g.edges[i].To && delays == 0 {
		return fmt.Errorf("dfg: retiming would create zero-delay self-loop on %d", g.edges[i].From)
	}
	g.invalidate()
	g.edges[i].Delays = delays
	return nil
}

// invalidate drops the cached topological order after a mutation.
func (g *Graph) invalidate() {
	if g.topo.Load() != nil {
		g.topo.Store(nil)
	}
}

// Succ returns the successor node IDs of v over zero-delay edges only,
// i.e. the children of v in the DAG portion. Parallel zero-delay edges yield
// one entry each.
func (g *Graph) Succ(v NodeID) []NodeID {
	var out []NodeID
	for _, ei := range g.succ[v] {
		if g.edges[ei].Delays == 0 {
			out = append(out, g.edges[ei].To)
		}
	}
	return out
}

// Pred returns the predecessor node IDs of v over zero-delay edges only.
func (g *Graph) Pred(v NodeID) []NodeID {
	var out []NodeID
	for _, ei := range g.pred[v] {
		if g.edges[ei].Delays == 0 {
			out = append(out, g.edges[ei].From)
		}
	}
	return out
}

// SuccAll returns all successors of v including delayed edges.
func (g *Graph) SuccAll(v NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.succ[v]))
	for _, ei := range g.succ[v] {
		out = append(out, g.edges[ei].To)
	}
	return out
}

// PredAll returns all predecessors of v including delayed edges.
func (g *Graph) PredAll(v NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.pred[v]))
	for _, ei := range g.pred[v] {
		out = append(out, g.edges[ei].From)
	}
	return out
}

// OutDegree is the number of zero-delay out-edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	n := 0
	for _, ei := range g.succ[v] {
		if g.edges[ei].Delays == 0 {
			n++
		}
	}
	return n
}

// InDegree is the number of zero-delay in-edges of v.
func (g *Graph) InDegree(v NodeID) int {
	n := 0
	for _, ei := range g.pred[v] {
		if g.edges[ei].Delays == 0 {
			n++
		}
	}
	return n
}

// Roots returns the nodes with no zero-delay predecessor, in ID order.
// Following the paper, a root node is a node without any parent in the DAG
// portion.
func (g *Graph) Roots() []NodeID {
	var out []NodeID
	for id := range g.nodes {
		if g.InDegree(NodeID(id)) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Leaves returns the nodes with no zero-delay successor, in ID order.
func (g *Graph) Leaves() []NodeID {
	var out []NodeID
	for id := range g.nodes {
		if g.OutDegree(NodeID(id)) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.Grow(len(g.nodes), len(g.edges))
	for _, n := range g.nodes {
		c.MustAddNode(n.Name, n.Op)
	}
	for _, e := range g.edges {
		c.MustAddEdge(e.From, e.To, e.Delays)
	}
	return c
}

// Transpose returns a new graph with every edge reversed. Node IDs, names
// and delay counts are preserved.
func (g *Graph) Transpose() *Graph {
	t := New()
	t.Grow(len(g.nodes), len(g.edges))
	for _, n := range g.nodes {
		t.MustAddNode(n.Name, n.Op)
	}
	for _, e := range g.edges {
		t.MustAddEdge(e.To, e.From, e.Delays)
	}
	return t
}

// Validate checks structural well-formedness: the DAG portion must be
// acyclic and every referenced node must exist (the latter is enforced at
// build time, so in practice Validate reports zero-delay cycles).
func (g *Graph) Validate() error {
	_, err := g.order()
	return err
}

// TopoOrder returns the nodes of the DAG portion in a topological order:
// for every zero-delay edge (u, v), u appears before v. (The paper calls
// this ordering a "post-ordering".) An error is returned if the zero-delay
// subgraph contains a cycle; such a DFG has no static schedule.
//
// The order is deterministic: among ready nodes the smallest ID goes first.
// It is computed once per graph state and cached; every call returns a
// fresh copy the caller may modify.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	order, err := g.order()
	if err != nil {
		return nil, err
	}
	out := make([]NodeID, len(order))
	copy(out, order)
	return out, nil
}

// order returns the cached topological order, sorting on first use. The
// slice is shared by every reader of the graph and must not be modified.
func (g *Graph) order() ([]NodeID, error) {
	if t := g.topo.Load(); t != nil {
		return t.order, t.err
	}
	order, err := g.topoSort()
	g.topo.Store(&topoResult{order: order, err: err})
	return order, err
}

// topoSort computes the topological order TopoOrder documents.
func (g *Graph) topoSort() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	for _, e := range g.edges {
		if e.Delays == 0 {
			indeg[e.To]++
		}
	}
	// A binary min-heap of ready IDs keeps the order deterministic (smallest
	// ID first) at O(log n) per node. The sort runs once per graph state, but
	// a cold request still pays it in full; the heap is hand-rolled over
	// NodeIDs to avoid the interface and closure costs of the sort/heap
	// packages.
	heap := make([]NodeID, 0, n)
	push := func(v NodeID) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() NodeID {
		v := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			s := i
			if l := 2*i + 1; l < last && heap[l] < heap[s] {
				s = l
			}
			if r := 2*i + 2; r < last && heap[r] < heap[s] {
				s = r
			}
			if s == i {
				break
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
		return v
	}
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			heap = append(heap, NodeID(id)) // IDs ascend: already heap-ordered
		}
	}
	order := make([]NodeID, 0, n)
	for len(heap) > 0 {
		v := pop()
		order = append(order, v)
		for _, ei := range g.succ[v] {
			e := g.edges[ei]
			if e.Delays != 0 {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				push(e.To)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("dfg: zero-delay cycle detected (no valid topological order)")
	}
	return order, nil
}

// ReverseTopoOrder returns TopoOrder reversed: children before parents.
func (g *Graph) ReverseTopoOrder() ([]NodeID, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, nil
}

// IsOutForest reports whether every node of the DAG portion has at most one
// parent, i.e. the zero-delay subgraph is a forest of out-trees. Tree_Assign
// requires this shape.
func (g *Graph) IsOutForest() bool {
	for id := range g.nodes {
		if g.InDegree(NodeID(id)) > 1 {
			return false
		}
	}
	return g.Validate() == nil
}

// IsInForest reports whether every node of the DAG portion has at most one
// child, i.e. the zero-delay subgraph is a forest of in-trees (fan-in
// computation trees, the natural shape of filter DFGs whose many inputs
// merge into one output).
func (g *Graph) IsInForest() bool {
	for id := range g.nodes {
		if g.OutDegree(NodeID(id)) > 1 {
			return false
		}
	}
	return g.Validate() == nil
}

// IsSimplePath reports whether the DAG portion is one simple chain
// v1 -> v2 -> ... -> vn covering all nodes.
func (g *Graph) IsSimplePath() bool {
	if g.N() == 0 {
		return false
	}
	roots := 0
	for id := range g.nodes {
		v := NodeID(id)
		if g.InDegree(v) > 1 || g.OutDegree(v) > 1 {
			return false
		}
		if g.InDegree(v) == 0 {
			roots++
		}
	}
	return roots == 1 && g.Validate() == nil
}

// CommonNodes returns the common nodes of the DAG portion in ID order. The
// paper defines a common node as one located on more than one critical
// (root-to-leaf) path, but its own example counts only nodes whose paths
// branch on *both* sides — in Figure 9 the roots A, B and leaves E, F each
// lie on two paths yet only C and D are called common. We follow the
// example: a node is common iff more than one root reaches it and it reaches
// more than one leaf-side path.
func (g *Graph) CommonNodes() []NodeID {
	down := g.pathCounts(false) // paths from v down to any leaf
	up := g.pathCounts(true)    // paths from any root down to v
	var out []NodeID
	for id := range g.nodes {
		if up[id] > 1 && down[id] > 1 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// CriticalPathCount returns the total number of root-to-leaf paths of the
// DAG portion. It can be exponential in |V|; the count saturates at
// math.MaxInt64 rather than overflowing.
func (g *Graph) CriticalPathCount() int64 {
	up := g.pathCounts(true)
	var total int64
	for id := range g.nodes {
		if g.OutDegree(NodeID(id)) == 0 {
			total = satAdd(total, up[id])
		}
	}
	return total
}

// pathCounts returns, per node, the number of paths from the node to a leaf
// (fromRoots=false) or from a root to the node (fromRoots=true), saturating.
func (g *Graph) pathCounts(fromRoots bool) []int64 {
	order, err := g.order()
	if err != nil {
		// A cyclic zero-delay subgraph is rejected everywhere else; treat
		// every node as on a single path so callers degrade gracefully.
		counts := make([]int64, len(g.nodes))
		for i := range counts {
			counts[i] = 1
		}
		return counts
	}
	counts := make([]int64, len(g.nodes))
	if fromRoots {
		for _, v := range order {
			if g.InDegree(v) == 0 {
				counts[v] = 1
				continue
			}
			for _, u := range g.Pred(v) {
				counts[v] = satAdd(counts[v], counts[u])
			}
		}
	} else {
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if g.OutDegree(v) == 0 {
				counts[v] = 1
				continue
			}
			for _, u := range g.Succ(v) {
				counts[v] = satAdd(counts[v], counts[u])
			}
		}
	}
	return counts
}

const maxInt64 = int64(^uint64(0) >> 1)

func satAdd(a, b int64) int64 {
	if a > maxInt64-b {
		return maxInt64
	}
	return a + b
}

// LongestPath returns the maximum total node weight over all root-to-leaf
// paths of the DAG portion, where weight[v] is the weight of node v, plus
// the list of nodes on one maximal path (in precedence order). Weights must
// be non-negative. An isolated node forms a path by itself.
func (g *Graph) LongestPath(weight []int) (length int, path []NodeID, err error) {
	if len(weight) != len(g.nodes) {
		return 0, nil, fmt.Errorf("dfg: weight slice has %d entries, graph has %d nodes", len(weight), len(g.nodes))
	}
	order, err := g.order()
	if err != nil {
		return 0, nil, err
	}
	dist := make([]int, len(g.nodes)) // longest weight of a path ending at v
	from := make([]NodeID, len(g.nodes))
	best := None
	for _, v := range order {
		dv, fv := weight[v], None
		for _, ei := range g.pred[v] {
			if e := &g.edges[ei]; e.Delays == 0 {
				if d := dist[e.From] + weight[v]; d > dv {
					dv, fv = d, e.From
				}
			}
		}
		dist[v], from[v] = dv, fv
		if best == None || dv > dist[best] {
			best = v
		}
	}
	if best == None {
		return 0, nil, nil // empty graph
	}
	for v := best; v != None; v = from[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[best], path, nil
}

// LongestPathLength is LongestPath's length alone. scratch, when it holds
// at least N entries, is used as working storage and overwritten, so a
// caller evaluating many weight vectors over one graph (a local search's
// energy function) allocates nothing per call; a shorter scratch is
// replaced by a fresh buffer.
func (g *Graph) LongestPathLength(weight, scratch []int) (int, error) {
	n := len(g.nodes)
	if len(weight) != n {
		return 0, fmt.Errorf("dfg: weight slice has %d entries, graph has %d nodes", len(weight), n)
	}
	order, err := g.order()
	if err != nil {
		return 0, err
	}
	if len(scratch) < n {
		scratch = make([]int, n)
	}
	if n == 0 {
		return 0, nil
	}
	dist := scratch[:n]
	length := math.MinInt
	for _, v := range order {
		dv := weight[v]
		for _, ei := range g.pred[v] {
			if e := &g.edges[ei]; e.Delays == 0 {
				if d := dist[e.From] + weight[v]; d > dv {
					dv = d
				}
			}
		}
		dist[v] = dv
		if dv > length {
			length = dv
		}
	}
	return length, nil
}

// PathLengthsThrough returns, per node, the maximum total weight of a
// root-to-leaf path passing through that node. The difference between a
// timing constraint and this value is the node's slack — how much longer
// it could run without stretching any deadline-relevant path.
func (g *Graph) PathLengthsThrough(weight []int) ([]int, error) {
	if len(weight) != len(g.nodes) {
		return nil, fmt.Errorf("dfg: weight slice has %d entries, graph has %d nodes", len(weight), len(g.nodes))
	}
	order, err := g.order()
	if err != nil {
		return nil, err
	}
	n := len(g.nodes)
	up := make([]int, n)
	down := make([]int, n)
	for _, v := range order {
		up[v] = weight[v]
		for _, u := range g.Pred(v) {
			if d := up[u] + weight[v]; d > up[v] {
				up[v] = d
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		down[v] = weight[v]
		for _, u := range g.Succ(v) {
			if d := down[u] + weight[v]; d > down[v] {
				down[v] = d
			}
		}
	}
	through := make([]int, n)
	for v := 0; v < n; v++ {
		through[v] = up[v] + down[v] - weight[v]
	}
	return through, nil
}

// OnLongestPath marks every node that lies on at least one maximum-weight
// root-to-leaf path. The greedy assignment baseline uses this to restrict
// its candidate upgrades to timing-critical nodes.
func (g *Graph) OnLongestPath(weight []int) (mask []bool, length int, err error) {
	if len(weight) != len(g.nodes) {
		return nil, 0, fmt.Errorf("dfg: weight slice has %d entries, graph has %d nodes", len(weight), len(g.nodes))
	}
	order, err := g.order()
	if err != nil {
		return nil, 0, err
	}
	n := len(g.nodes)
	down := make([]int, n) // longest path weight starting at v (inclusive)
	up := make([]int, n)   // longest path weight ending at v (inclusive)
	for _, v := range order {
		up[v] = weight[v]
		for _, u := range g.Pred(v) {
			if d := up[u] + weight[v]; d > up[v] {
				up[v] = d
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		down[v] = weight[v]
		for _, u := range g.Succ(v) {
			if d := down[u] + weight[v]; d > down[v] {
				down[v] = d
			}
		}
	}
	for _, v := range order {
		if l := up[v] + down[v] - weight[v]; l > length {
			length = l
		}
	}
	mask = make([]bool, n)
	for _, v := range order {
		mask[v] = up[v]+down[v]-weight[v] == length
	}
	return mask, length, nil
}
