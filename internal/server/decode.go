package server

import (
	"sync"

	"hetsynth/internal/dfg"
	"hetsynth/internal/jsonscan"
)

// scanSolveRequest is the one-pass JSON solve decode: a walker over the
// known SolveRequest keys that hands the "graph" value straight to
// dfg.ParseJSONFast, so the graph bytes are scanned once instead of by
// encoding/json's validator, its RawMessage skip and the graph decoder in
// turn. It accepts only the form clients and dfg.MarshalJSON emit — exact
// lowercase keys, each at most once, no nulls, escapes or fractions, and
// nothing but whitespace after the object — and reports ok=false on
// anything else, including a graph the fast decoder rejects. The caller
// then runs the encoding/json decoder, which defines the accepted language
// and every error; whatever this walker accepts, that decoder decodes to
// the same request.
//
// The returned request's Graph aliases body and is only a marker for
// resolveGraph's source checks; the graph itself is the returned *dfg.Graph,
// which shares no memory with body. Every string is copied.
func scanSolveRequest(body []byte) (req SolveRequest, g *dfg.Graph, ok bool) {
	s := jsonscan.Scanner{B: body}
	str := func(dst *string) bool {
		b, ok := s.String()
		*dst = string(b)
		return ok
	}
	integer := func(dst *int) bool {
		v, ok := s.Int()
		*dst = int(v)
		return ok && int64(*dst) == v
	}
	_, ok = s.Object(solveKeys, func(i int) bool {
		switch i {
		case keyGraph:
			if s.Peek() != '{' {
				return false
			}
			start := s.I
			pg, n, ok := dfg.ParseJSONFast(body[start:])
			if !ok {
				return false
			}
			s.I = start + n
			req.Graph, g = body[start:s.I], pg
			return true
		case keyBench:
			return str(&req.Bench)
		case keyTable:
			req.Table = new(TablePayload)
			return scanTable(&s, req.Table)
		case keyCatalog:
			return str(&req.Catalog)
		case keySeed:
			v, ok := s.Int()
			req.Seed = &v
			return ok
		case keyTypes:
			return integer(&req.Types)
		case keyDeadline:
			return integer(&req.Deadline)
		case keySlack:
			req.Slack = new(int)
			return integer(req.Slack)
		case keyAlgorithm:
			return str(&req.Algorithm)
		case keySchedule:
			v, ok := s.Bool()
			req.Schedule = v
			return ok
		case keyTimeout:
			return integer(&req.TimeoutMS)
		}
		return false
	})
	if !ok || !s.End() {
		return SolveRequest{}, nil, false
	}
	return req, g, true
}

// solveKeys are the SolveRequest JSON keys, indexed by the key* constants.
var solveKeys = []string{"graph", "bench", "table", "catalog", "seed", "types",
	"deadline", "slack", "algorithm", "schedule", "timeout_ms"}

const (
	keyGraph = iota
	keyBench
	keyTable
	keyCatalog
	keySeed
	keyTypes
	keyDeadline
	keySlack
	keyAlgorithm
	keySchedule
	keyTimeout
)

// scanTable reads an inline {"time":[[...]],"cost":[[...]]} table.
func scanTable(s *jsonscan.Scanner, t *TablePayload) bool {
	_, ok := s.Object(tableKeys, func(i int) bool {
		var ok bool
		if i == 0 {
			t.Time, ok = scanMatrix[int](s)
		} else {
			t.Cost, ok = scanMatrix[int64](s)
		}
		return ok
	})
	return ok
}

var tableKeys = []string{"time", "cost"}

// matrixScratch is scanMatrix's pooled working storage: every entry in
// reading order and the end offset of each row.
type matrixScratch struct {
	vals []int64
	ends []int
}

var matrixPool = sync.Pool{New: func() any { return new(matrixScratch) }}

// scanMatrix reads an array of integer arrays. The rows are carved from one
// backing array with full slice expressions, so a table costs two
// allocations however many rows it has.
func scanMatrix[T int | int64](s *jsonscan.Scanner) ([][]T, bool) {
	sc := matrixPool.Get().(*matrixScratch)
	defer matrixPool.Put(sc)
	sc.vals, sc.ends = sc.vals[:0], sc.ends[:0]
	ok := s.Array(func() bool {
		ok := s.Array(func() bool {
			v, ok := s.Int()
			if ok && int64(T(v)) != v {
				return false
			}
			sc.vals = append(sc.vals, v)
			return ok
		})
		sc.ends = append(sc.ends, len(sc.vals))
		return ok
	})
	if !ok {
		return nil, false
	}
	backing := make([]T, len(sc.vals))
	for i, v := range sc.vals {
		backing[i] = T(v)
	}
	rows := make([][]T, len(sc.ends))
	start := 0
	for i, end := range sc.ends {
		rows[i] = backing[start:end:end]
		start = end
	}
	return rows, true
}
