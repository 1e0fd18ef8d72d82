package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// treeSolveBody renders the cold-solve request shape for an n-node random
// tree: an inline graph in dfg's own JSON form with a seed-derived table, or
// (inline=true) the same graph with an inline table.
func treeSolveBody(tb testing.TB, n int, inline bool) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g := dfg.RandomTree(rng, n)
	gj, err := g.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	if !inline {
		return []byte(fmt.Sprintf(`{"graph":%s,"seed":8674665223082153551,"types":4,"slack":10}`, gj))
	}
	tab := fu.RandomTable(rng, n, 3)
	tj, err := json.Marshal(TablePayload{Time: tab.Time, Cost: tab.Cost})
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"graph":%s,"table":%s,"slack":10}`, gj, tj))
}

// BenchmarkDecodeSolveRequest measures the node's JSON solve decode — body
// bytes to a resolved solveSpec with canonical keys — on the tree sizes the
// cold-solve workload sends, with a seed table and with an inline table.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	for _, inline := range []bool{false, true} {
		for _, n := range []int{255, 1151, 2047} {
			name := fmt.Sprintf("n=%d", n)
			if inline {
				name = "table/" + name
			}
			body := treeSolveBody(b, n, inline)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					if _, err := decodeSolveRequestBytes(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDecodeSolveRequestFastPath proves generated tree bodies — the
// cold-solve shape, with a seed or an inline table — take the one-pass
// decode and resolve exactly as the encoding/json decoder does, within an
// allocation budget the encoding/json path (~14k allocs on the 2047-node
// body) cannot meet.
func TestDecodeSolveRequestFastPath(t *testing.T) {
	for _, inline := range []bool{false, true} {
		for _, n := range []int{255, 2047} {
			body := treeSolveBody(t, n, inline)
			if _, _, ok := scanSolveRequest(body); !ok {
				t.Fatalf("n=%d inline=%v: body left the one-pass subset", n, inline)
			}
			spec, err := decodeSolveRequestBytes(body)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := decodeSolveRequestJSON(body)
			if err != nil {
				t.Fatal(err)
			}
			sameSpec(t, spec, oracle)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := decodeSolveRequestBytes(body); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("n=%d inline=%v: %.0f allocs/op", n, inline, allocs)
			if !raceEnabled && allocs > 200 {
				t.Fatalf("n=%d inline=%v: decode spends %.0f allocs/op, budget 200", n, inline, allocs)
			}
		}
	}
}
