package hap

import (
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// frontierSink keeps the benchmarked builds observable to the compiler.
var frontierSink *FrontierSolver

// BenchmarkNewFrontierSolver builds FrontierSolvers the way the serving
// layer does for a fresh tree instance: random trees of 255-2047 nodes,
// random tables with K = 3-5, horizon = the longest path at max times. One
// op builds all 16 instances, so ns/op and B/op are per 16 builds.
func BenchmarkNewFrontierSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(301))
	probs := make([]Problem, 16)
	for i := range probs {
		n := 255 + rng.Intn(2047-255+1)
		g := dfg.RandomTree(rng, n)
		probs[i] = wideProblem(b, g, fu.RandomTable(rng, n, 3+rng.Intn(3)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			fs, err := NewFrontierSolver(p)
			if err != nil {
				b.Fatal(err)
			}
			frontierSink = fs
		}
	}
}
