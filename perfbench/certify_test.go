package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
	"hetsynth/internal/hap"
	"hetsynth/internal/rta"
	"hetsynth/internal/server"
)

// certFixture is a one-tree, one-admit workload with a correct answer for
// each.
func certFixture(t *testing.T) (*workload, server.SolveResponse, server.AdmitResponse) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := dfg.RandomTree(rng, 40)
	tab := fu.RandomTable(rng, 40, 3)
	w := &workload{
		solves: []*solveInst{{graph: g, table: tab, slack: 3, algo: "auto", tree: true}},
	}
	a := genAdmit(rng)
	w.admits = []*admitInst{&a}
	p := problemOf(w.solves[0])
	sol, err := hap.TreeAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	solve := server.SolveResponse{Source: "solve", SolveResult: server.SolveResult{
		Algorithm: "auto", Deadline: p.Deadline, Cost: sol.Cost, Length: sol.Length,
		Assignment: assignmentOf(sol.Assign), Quality: "exact",
	}}
	sr, err := rta.CheapestConfig(context.Background(), taskSet(w.admits[0]), rta.SearchOptions{MaxPerType: w.admits[0].maxPerType}, rta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found, price := sr.Found, sr.Price
	admit := server.AdmitResponse{Source: "admit", AdmitResult: server.AdmitResult{
		Admitted: sr.Found, Found: &found, Config: sr.Config, Price: &price, Steps: sr.Steps, Quality: "exact",
	}}
	return w, solve, admit
}

func assignmentOf(a hap.Assignment) []int {
	out := make([]int, len(a))
	for i, k := range a {
		out[i] = int(k)
	}
	return out
}

// reqOf is the fixture request of kind k, carrying its instance.
func reqOf(w *workload, k kind) *request {
	if k == kAdmit {
		return &request{kind: k, admit: w.admits[0]}
	}
	return &request{kind: k, insts: w.solves[:1]}
}

func checkBody(c *certifier, k kind, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	o := outcome{req: reqOf(c.w, k), sent: true, status: 200, body: b}
	return c.check(&o).err
}

func TestCertifierAcceptsCorrectAnswers(t *testing.T) {
	w, solve, admit := certFixture(t)
	c := newCertifier(w)
	if err := checkBody(c, kSolve, solve); err != nil {
		t.Fatalf("correct solve rejected: %v", err)
	}
	if err := checkBody(c, kAdmit, admit); err != nil {
		t.Fatalf("correct admit rejected: %v", err)
	}
}

func TestCertifierRejectsDoctoredCost(t *testing.T) {
	w, solve, _ := certFixture(t)
	solve.Cost--
	if err := checkBody(newCertifier(w), kSolve, solve); err == nil || !strings.Contains(err.Error(), "cost") {
		t.Fatalf("doctored cost accepted (err %v)", err)
	}
}

// An assignment put entirely on the slowest type misses the deadline even
// when the reported cost and length are its true ones.
func TestCertifierRejectsOverDeadlineAssignment(t *testing.T) {
	w, solve, _ := certFixture(t)
	p := problemOf(w.solves[0])
	slow := make(hap.Assignment, p.Graph.N())
	for v := range slow {
		slow[v] = fu.TypeID(p.Table.K() - 1)
	}
	ev, err := hap.Evaluate(p, slow)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Length <= p.Deadline {
		t.Fatalf("fixture: slowest assignment length %d fits deadline %d", ev.Length, p.Deadline)
	}
	solve.Assignment, solve.Cost, solve.Length = assignmentOf(slow), ev.Cost, ev.Length
	if err := checkBody(newCertifier(w), kSolve, solve); err == nil || !strings.Contains(err.Error(), "exceeds deadline") {
		t.Fatalf("over-deadline assignment accepted (err %v)", err)
	}
}

func TestCertifierRejectsFlippedAdmitVerdict(t *testing.T) {
	w, _, admit := certFixture(t)
	flipped := !*admit.Found
	admit.Found, admit.Admitted = &flipped, flipped
	if err := checkBody(newCertifier(w), kAdmit, admit); err == nil {
		t.Fatal("flipped admit verdict accepted")
	}
}

func TestCertifierRejectsWrongSessionDigest(t *testing.T) {
	w, err := generate("session-patch", 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := w.sessions[0]
	p := hap.Problem{Graph: sp.graph, Table: sp.table, Deadline: sp.deadline}
	sol, err := hap.TreeAssign(p)
	if err != nil {
		t.Fatal(err)
	}
	view := server.SessionView{ID: sp.id, Gen: 1, Digest: "00", Result: &server.SolveResult{
		Deadline: p.Deadline, Cost: sol.Cost, Length: sol.Length, Assignment: assignmentOf(sol.Assign), Quality: "exact",
	}}
	o := outcome{req: &request{kind: kGet, sess: 0, gen: 1}, sent: true, status: 200, body: mustJSON(view)}
	if err := newCertifier(w).check(&o).err; err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("wrong session digest accepted (err %v)", err)
	}
}

func TestTallyCountsWrongAnswersAsFailures(t *testing.T) {
	w, solve, _ := certFixture(t)
	good := mustJSON(solve)
	solve.Cost++
	bad := mustJSON(solve)
	r := reqOf(w, kSolve)
	outs := []outcome{
		{req: r, sent: true, status: 200, body: good},
		{req: r, sent: true, status: 200, body: bad},
		{req: r, sent: true, status: 503, body: []byte(`{}`)},
	}
	tl := newCertifier(w).certifyAll(outs)
	if tl.attempted != 3 || tl.failed != 2 || tl.wrong != 1 || tl.exact != 1 {
		t.Fatalf("tally %+v, want attempted 3, failed 2, wrong 1, exact 1", tl)
	}
}
