package dfg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkLongestPath measures one weighted longest-path pass — the inner
// loop of every feasibility check and of the annealer's energy function —
// on a random tree and a random DAG. The topological order is derived once
// per graph, so the steady state measures the path DP itself.
func BenchmarkLongestPath(b *testing.B) {
	for _, n := range []int{255, 2047} {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, c := range []struct {
			kind string
			g    *Graph
		}{{"tree", RandomTree(rng, n)}, {"dag", RandomDAG(rng, n/8, 0.06)}} {
			w := make([]int, c.g.N())
			for i := range w {
				w[i] = 1 + rng.Intn(9)
			}
			b.Run(fmt.Sprintf("%s/n=%d", c.kind, c.g.N()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := c.g.LongestPath(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
