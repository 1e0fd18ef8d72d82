package dfg

// Metrics summarizes the shape of the DAG portion of a graph; the
// experiment harness prints them alongside results and the generators'
// tests pin them.
type Metrics struct {
	Nodes      int
	Edges      int // zero-delay edges only
	DelayEdges int
	Roots      int
	Leaves     int
	Depth      int // nodes on the longest unit-weight path
	Width      int // max nodes at equal depth (an antichain lower bound)
	MaxFanout  int
	MaxFanin   int
}

// ComputeMetrics returns the shape metrics of the DAG portion. The graph
// must validate (acyclic zero-delay subgraph).
func ComputeMetrics(g *Graph) (Metrics, error) {
	order, err := g.order()
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{Nodes: g.N()}
	for _, e := range g.Edges() {
		if e.Delays == 0 {
			m.Edges++
		} else {
			m.DelayEdges++
		}
	}
	level := make([]int, g.N())
	levelCount := map[int]int{}
	for _, v := range order {
		level[v] = 1
		for _, u := range g.Pred(v) {
			if l := level[u] + 1; l > level[v] {
				level[v] = l
			}
		}
		levelCount[level[v]]++
		if level[v] > m.Depth {
			m.Depth = level[v]
		}
		if in := g.InDegree(v); in > m.MaxFanin {
			m.MaxFanin = in
		}
		if out := g.OutDegree(v); out > m.MaxFanout {
			m.MaxFanout = out
		}
		if g.InDegree(v) == 0 {
			m.Roots++
		}
		if g.OutDegree(v) == 0 {
			m.Leaves++
		}
	}
	for _, c := range levelCount {
		if c > m.Width {
			m.Width = c
		}
	}
	return m, nil
}
