package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

func newMachine(t *testing.T, src string) *Machine {
	t.Helper()
	m := New()
	if err := m.Consult(src); err != nil {
		t.Fatalf("Consult: %v", err)
	}
	return m
}

func queryStrings(t *testing.T, m *Machine, goal string) []string {
	t.Helper()
	sols, err := m.Query(goal)
	if err != nil {
		t.Fatalf("Query(%s): %v", goal, err)
	}
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = term.Canonical(s)
	}
	return out
}

func sortedQuery(t *testing.T, m *Machine, goal string) []string {
	out := queryStrings(t, m, goal)
	sort.Strings(out)
	return out
}

func eqStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFactsAndRules(t *testing.T) {
	m := newMachine(t, `
		parent(tom, bob).
		parent(bob, ann).
		parent(bob, pat).
		grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
	`)
	eqStrings(t, sortedQuery(t, m, "grandparent(tom, W)"),
		[]string{"grandparent(tom,ann)", "grandparent(tom,pat)"})
	eqStrings(t, queryStrings(t, m, "parent(tom, bob)"), []string{"parent(tom,bob)"})
	if got := queryStrings(t, m, "parent(ann, X)"); len(got) != 0 {
		t.Fatalf("expected no solutions, got %v", got)
	}
}

func TestAppendNondeterminism(t *testing.T) {
	m := newMachine(t, `
		app([], Ys, Ys).
		app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
	`)
	// forward
	eqStrings(t, queryStrings(t, m, "app([1,2],[3],Zs)"), []string{"app([1,2],[3],[1,2,3])"})
	// backward: all splits
	got := queryStrings(t, m, "app(Xs, Ys, [1,2,3])")
	if len(got) != 4 {
		t.Fatalf("expected 4 splits, got %v", got)
	}
}

func TestLeftRecursionTerminatesWithTabling(t *testing.T) {
	m := newMachine(t, `
		:- table path/2.
		edge(a, b). edge(b, c). edge(c, d).
		path(X, Y) :- path(X, Z), edge(Z, Y).
		path(X, Y) :- edge(X, Y).
	`)
	eqStrings(t, sortedQuery(t, m, "path(a, W)"),
		[]string{"path(a,b)", "path(a,c)", "path(a,d)"})
}

func TestCyclicGraphTabling(t *testing.T) {
	m := newMachine(t, `
		:- table path/2.
		edge(a, b). edge(b, c). edge(c, a). edge(c, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`)
	// From a cycle every node reaches every node in {a,b,c,d} except d's
	// successors (d has none).
	eqStrings(t, sortedQuery(t, m, "path(a, W)"),
		[]string{"path(a,a)", "path(a,b)", "path(a,c)", "path(a,d)"})
	eqStrings(t, sortedQuery(t, m, "path(d, W)"), nil)
}

func TestMutualRecursionTabling(t *testing.T) {
	m := newMachine(t, `
		:- table even/1, odd/1.
		num(0). num(s(0)). num(s(s(0))). num(s(s(s(0)))).
		even(0).
		even(s(X)) :- odd(X).
		odd(s(X)) :- even(X).
	`)
	eqStrings(t, queryStrings(t, m, "even(s(s(0)))"), []string{"even(s(s(0)))"})
	if got := queryStrings(t, m, "odd(s(s(0)))"); len(got) != 0 {
		t.Fatalf("odd(2) should fail, got %v", got)
	}
}

// The classic same-generation program: heavily mutually recursive through
// the table, requires completion to be SCC-aware.
func TestSameGeneration(t *testing.T) {
	m := newMachine(t, `
		:- table sg/2.
		par(a1, b1). par(a1, b2). par(a2, b3).
		par(b1, c1). par(b2, c2). par(b3, c3).
		sg(X, X).
		sg(X, Y) :- par(XP, X), sg(XP, YP), par(YP, Y).
	`)
	got := sortedQuery(t, m, "sg(c1, W)")
	// c1's grandparent is a1, which is also c2's; c3 descends from a2.
	want := []string{"sg(c1,c1)", "sg(c1,c2)"}
	eqStrings(t, got, want)
	eqStrings(t, sortedQuery(t, m, "sg(c3, W)"), []string{"sg(c3,c3)"})
}

func TestTablingAvoidsDuplicateAnswers(t *testing.T) {
	m := newMachine(t, `
		:- table p/1.
		p(a). p(a). p(b).
	`)
	eqStrings(t, sortedQuery(t, m, "p(X)"), []string{"p(a)", "p(b)"})
	if m.Stats().Answers != 2 {
		t.Fatalf("answers = %d, want 2 (variant-checked)", m.Stats().Answers)
	}
}

func TestTablesRecordCallsAndAnswers(t *testing.T) {
	m := newMachine(t, `
		:- table q/2.
		q(a, b). q(b, c).
		r(X) :- q(X, _).
	`)
	if _, err := m.Query("r(a)"); err != nil {
		t.Fatal(err)
	}
	dumps := m.DumpTables("q/2")
	if len(dumps) != 1 {
		t.Fatalf("expected 1 call-table entry, got %d", len(dumps))
	}
	// The call q(a,_) is recorded — this is the paper's "input modes for
	// free" property.
	if got := term.Canonical(dumps[0].Call); got != "q(a,_0)" {
		t.Fatalf("recorded call = %q", got)
	}
	if len(dumps[0].Answers) != 1 || term.Canonical(dumps[0].Answers[0]) != "q(a,b)" {
		t.Fatalf("answers = %v", dumps[0].Answers)
	}
	if !dumps[0].Complete {
		t.Fatal("table should be complete")
	}
}

func TestVariantCallsShareTables(t *testing.T) {
	m := newMachine(t, `
		:- table p/2.
		p(a, b). p(b, c).
	`)
	if _, err := m.Query("p(X, Y)"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("p(U, V)"); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Subgoals != 1 {
		t.Fatalf("subgoals = %d, want 1 (variant calls share)", m.Stats().Subgoals)
	}
	// A more specific call creates its own entry (variant-based tabling).
	if _, err := m.Query("p(a, Y)"); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Subgoals != 2 {
		t.Fatalf("subgoals = %d, want 2", m.Stats().Subgoals)
	}
}

func TestCutCommitsToClause(t *testing.T) {
	m := newMachine(t, `
		max(X, Y, X) :- X >= Y, !.
		max(_, Y, Y).
	`)
	eqStrings(t, queryStrings(t, m, "max(3, 2, M)"), []string{"max(3,2,3)"})
	eqStrings(t, queryStrings(t, m, "max(2, 3, M)"), []string{"max(2,3,3)"})
}

func TestCutPrunesLeftGoals(t *testing.T) {
	m := newMachine(t, `
		p(1). p(2). p(3).
		first(X) :- p(X), !.
	`)
	eqStrings(t, queryStrings(t, m, "first(X)"), []string{"first(1)"})
}

func TestCutLocalToCall(t *testing.T) {
	m := newMachine(t, `
		p(1). p(2).
		q(X) :- call((p(X), !)).
	`)
	// Cut inside call/1 is local: q should still backtrack over p? No —
	// cut inside call prunes p's alternatives within that call, so only
	// the first solution of the conjunction survives, but q's own
	// clauses are unaffected.
	eqStrings(t, queryStrings(t, m, "q(X)"), []string{"q(1)"})
}

func TestIfThenElse(t *testing.T) {
	m := newMachine(t, `
		sign(X, pos) :- ( X > 0 -> true ; fail ).
		sign(X, nonpos) :- ( X > 0 -> fail ; true ).
		classify(X, C) :- ( X > 0 -> C = pos ; X < 0 -> C = neg ; C = zero ).
	`)
	eqStrings(t, queryStrings(t, m, "classify(5, C)"), []string{"classify(5,pos)"})
	eqStrings(t, queryStrings(t, m, "classify(-5, C)"), []string{"classify(-5,neg)"})
	eqStrings(t, queryStrings(t, m, "classify(0, C)"), []string{"classify(0,zero)"})
	// condition is once-only
	m2 := newMachine(t, `
		p(1). p(2).
		q(X, Y) :- ( p(X) -> Y = yes ; Y = no ).
	`)
	eqStrings(t, queryStrings(t, m2, "q(X, Y)"), []string{"q(1,yes)"})
}

func TestNegationAsFailure(t *testing.T) {
	m := newMachine(t, `
		p(a).
		q(X) :- \+ p(X).
	`)
	eqStrings(t, queryStrings(t, m, "q(b)"), []string{"q(b)"})
	if got := queryStrings(t, m, "q(a)"); len(got) != 0 {
		t.Fatalf("q(a) should fail, got %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	m := New()
	cases := map[string]string{
		"X is 2 + 3 * 4":   "14",
		"X is (2 + 3) * 4": "20",
		"X is 10 // 3":     "3",
		"X is 10 mod 3":    "1",
		"X is -7 mod 3":    "2", // floored mod
		"X is min(3, 5)":   "3",
		"X is max(3, 5)":   "5",
		"X is abs(-4)":     "4",
		"X is 1 << 4":      "16",
	}
	for goal, want := range cases {
		sols, err := m.Query(goal)
		if err != nil {
			t.Errorf("%s: %v", goal, err)
			continue
		}
		if len(sols) != 1 || !strings.Contains(term.Canonical(sols[0]), want) {
			t.Errorf("%s = %v, want %s", goal, sols, want)
		}
	}
	for _, goal := range []string{"1 < 2", "3 >= 3", "2 =:= 1 + 1", "2 =\\= 3"} {
		if sols, err := m.Query(goal); err != nil || len(sols) != 1 {
			t.Errorf("%s should succeed once: %v %v", goal, sols, err)
		}
	}
	if _, err := m.Query("X is Y + 1"); err == nil {
		t.Error("unbound arithmetic should error")
	}
	if _, err := m.Query("X is 1 // 0"); err == nil {
		t.Error("division by zero should error")
	}
}

func TestStructuralBuiltins(t *testing.T) {
	m := New()
	cases := []struct{ goal, want string }{
		{"functor(f(a,b), N, A)", "functor(f(a,b),f,2)"},
		{"functor(T, g, 2), T = g(X, Y)", ""},
		{"arg(2, f(a,b,c), X)", "arg(2,f(a,b,c),b)"},
		{"f(a,b) =.. L", "=..(f(a,b),[f,a,b])"},
		{"T =.. [h, 1, 2]", "=..(h(1,2),[h,1,2])"},
	}
	for _, c := range cases {
		sols, err := m.Query(c.goal)
		if err != nil {
			t.Errorf("%s: %v", c.goal, err)
			continue
		}
		if len(sols) == 0 {
			t.Errorf("%s: no solutions", c.goal)
			continue
		}
		if c.want != "" && term.Canonical(sols[0]) != c.want {
			t.Errorf("%s = %s, want %s", c.goal, term.Canonical(sols[0]), c.want)
		}
	}
}

func TestFindall(t *testing.T) {
	m := newMachine(t, `p(1). p(2). p(3).`)
	sols, err := m.Query("findall(X, p(X), L)")
	if err != nil || len(sols) != 1 {
		t.Fatalf("findall: %v, %v", sols, err)
	}
	if got := term.Canonical(sols[0]); got != "findall(_0,p(_0),[1,2,3])" {
		t.Fatalf("findall = %s", got)
	}
	// findall with no solutions gives []
	sols, err = m.Query("findall(X, p(99), L)")
	if err != nil || len(sols) != 1 || !strings.Contains(term.Canonical(sols[0]), "[]") {
		t.Fatalf("empty findall = %v, %v", sols, err)
	}
}

func TestOnceForallBetween(t *testing.T) {
	m := newMachine(t, `p(1). p(2).`)
	eqStrings(t, queryStrings(t, m, "once(p(X))"), []string{"once(p(1))"})
	eqStrings(t, queryStrings(t, m, "forall(p(X), X > 0)"), []string{"forall(p(_0),>(_0,0))"})
	if got := queryStrings(t, m, "forall(p(X), X > 1)"); len(got) != 0 {
		t.Fatalf("forall should fail, got %v", got)
	}
	got := queryStrings(t, m, "between(1, 3, X)")
	eqStrings(t, got, []string{"between(1,3,1)", "between(1,3,2)", "between(1,3,3)"})
}

func TestAssertDynamic(t *testing.T) {
	m := New()
	if _, err := m.Query("assert(fact(1)), assert(fact(2))"); err != nil {
		t.Fatal(err)
	}
	eqStrings(t, sortedQuery(t, m, "fact(X)"), []string{"fact(1)", "fact(2)"})
	if _, err := m.Query("asserta(fact(0))"); err != nil {
		t.Fatal(err)
	}
	eqStrings(t, queryStrings(t, m, "fact(X)"), []string{"fact(0)", "fact(1)", "fact(2)"})
}

func TestUndefinedPredicateErrors(t *testing.T) {
	m := New()
	if _, err := m.Query("no_such_thing(1)"); err == nil {
		t.Fatal("undefined predicate should be an error")
	}
}

func TestDepthLimit(t *testing.T) {
	m := newMachine(t, `loop :- loop.`)
	m.Limits.MaxDepth = 1000
	if _, err := m.Query("loop"); err == nil || !strings.Contains(err.Error(), "depth limit") {
		t.Fatalf("expected depth limit error, got %v", err)
	}
	// The machine must remain usable after the error.
	if err := m.Consult("ok."); err != nil {
		t.Fatal(err)
	}
	if sols, err := m.Query("ok"); err != nil || len(sols) != 1 {
		t.Fatalf("machine unusable after error: %v %v", sols, err)
	}
}

func TestCutInTabledPredicateRejected(t *testing.T) {
	m := newMachine(t, `
		:- table p/1.
		p(1) :- !.
	`)
	if _, err := m.Query("p(X)"); err == nil || !strings.Contains(err.Error(), "cut") {
		t.Fatalf("expected cut-in-tabled error, got %v", err)
	}
}

func TestCompiledModeSameResults(t *testing.T) {
	src := `
		:- table path/2.
		edge(a, b). edge(b, c). edge(c, a). edge(b, d).
		path(X, Y) :- edge(X, Y).
		path(X, Y) :- edge(X, Z), path(Z, Y).
	`
	m1 := New()
	if err := m1.Consult(src); err != nil {
		t.Fatal(err)
	}
	m2 := New()
	m2.Mode = ModeClosure
	if err := m2.Consult(src); err != nil {
		t.Fatal(err)
	}
	g1 := sortedQuery(t, m1, "path(a, W)")
	g2 := sortedQuery(t, m2, "path(a, W)")
	eqStrings(t, g1, g2)
}

func TestFirstArgIndexing(t *testing.T) {
	src := `
		p(a, 1). p(b, 2). p(c, 3). p(X, 0) :- atom(X).
	`
	m := New()
	m.Mode = ModeClosure
	if err := m.Consult(src); err != nil {
		t.Fatal(err)
	}
	eqStrings(t, queryStrings(t, m, "p(b, N)"), []string{"p(b,2)", "p(b,0)"})
	// The closure backend's first-argument index should try fewer
	// clauses than the 4 loaded.
	before := m.Stats().Resolutions
	if _, err := m.Query("p(c, N)"); err != nil {
		t.Fatal(err)
	}
	tried := m.Stats().Resolutions - before
	if tried > 2 {
		t.Fatalf("index should narrow to 2 candidates, tried %d", tried)
	}
	// Unseen key falls back to var-first clauses only.
	eqStrings(t, queryStrings(t, m, "p(zz, N)"), []string{"p(zz,0)"})
}

func TestResetTables(t *testing.T) {
	m := newMachine(t, `
		:- table p/1.
		p(a).
	`)
	if _, err := m.Query("p(X)"); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Subgoals != 1 {
		t.Fatal("expected one subgoal")
	}
	m.ResetTables()
	if m.Stats().Subgoals != 0 || len(m.DumpTables("")) != 0 {
		t.Fatal("tables not cleared")
	}
	if _, err := m.Query("p(X)"); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Subgoals != 1 {
		t.Fatal("re-derivation after reset failed")
	}
}

func TestSolveStopEarly(t *testing.T) {
	m := newMachine(t, `p(1). p(2). p(3).`)
	goal, _, _ := prolog.ParseTerm("p(X)")
	n := 0
	err := m.Solve(goal, func() bool {
		n++
		return n == 2
	})
	if err != nil || n != 2 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func parseGoalTerms(t *testing.T, srcs ...string) []term.Term {
	t.Helper()
	out := make([]term.Term, len(srcs))
	for i, s := range srcs {
		g, _, err := prolog.ParseTerm(s)
		if err != nil {
			t.Fatalf("goal %q: %v", s, err)
		}
		out[i] = g
	}
	return out
}

// TestSolveAllErrorEarliestGoal: SolveAll blames the first failing goal
// by index, wraps the sentinel, and leaves the machine reusable.
func TestSolveAllErrorEarliestGoal(t *testing.T) {
	var sb strings.Builder
	// n0 and n2 diverge past the answer limit; n1 is finite.
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, ":- table n%d/1.\nn%d(z).\n", i, i)
		if i != 1 {
			fmt.Fprintf(&sb, "n%d(s(X)) :- n%d(X).\n", i, i)
		}
	}
	m := newMachine(t, sb.String())
	m.Limits.MaxAnswers = 50
	goals := parseGoalTerms(t, "n1(X)", "n0(X)", "n2(X)")
	err := m.SolveAll(goals)
	if !errors.Is(err, ErrAnswerLimit) {
		t.Fatalf("want ErrAnswerLimit, got %v", err)
	}
	var ge *GoalError
	if !errors.As(err, &ge) || ge.Index != 1 {
		t.Fatalf("want GoalError{Index: 1}, got %#v", err)
	}
	m.ResetTables()
	m.Limits.MaxAnswers = 0
	if err := m.SolveAll(goals[:1]); err != nil {
		t.Fatalf("reuse after failed run: %v", err)
	}
}

// TestSolveAllReuseAfterResetTables: SolveAll is repeatable on one
// closure-mode machine across ResetTables (the compile cache survives,
// the tables do not), producing identical tables.
func TestSolveAllReuseAfterResetTables(t *testing.T) {
	var sb strings.Builder
	var goalSrcs []string
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, ":- table tc%d/2.\ne%d(1,2). e%d(2,3). e%d(3,1).\n", i, i, i, i)
		fmt.Fprintf(&sb, "tc%d(X,Y) :- e%d(X,Y).\ntc%d(X,Y) :- e%d(X,Z), tc%d(Z,Y).\n", i, i, i, i, i)
		goalSrcs = append(goalSrcs, fmt.Sprintf("tc%d(X,Y)", i))
	}
	m := New()
	m.Mode = ModeClosure
	mustConsult(t, m, sb.String())
	goals := parseGoalTerms(t, goalSrcs...)
	var first string
	for round := 0; round < 3; round++ {
		if err := m.SolveAll(goals); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var dump strings.Builder
		for _, d := range m.DumpTables("") {
			fmt.Fprintf(&dump, "%s complete=%v\n", term.Canonical(d.Call), d.Complete)
			for _, a := range d.Answers {
				fmt.Fprintf(&dump, "  %s\n", term.Canonical(a))
			}
		}
		if round == 0 {
			first = dump.String()
		} else if dump.String() != first {
			t.Fatalf("round %d tables diverge from round 0:\n%s\nvs\n%s", round, dump.String(), first)
		}
		m.ResetTables()
	}
}

func TestDisjunction(t *testing.T) {
	m := newMachine(t, `p(X) :- X = a ; X = b.`)
	eqStrings(t, queryStrings(t, m, "p(X)"), []string{"p(a)", "p(b)"})
}

func TestTableSpaceAccounting(t *testing.T) {
	m := newMachine(t, `
		:- table p/1.
		p(a). p(bb). p(ccc).
	`)
	if _, err := m.Query("p(X)"); err != nil {
		t.Fatal(err)
	}
	if m.TableSpace() <= 0 {
		t.Fatal("table space should be positive after tabled query")
	}
}
