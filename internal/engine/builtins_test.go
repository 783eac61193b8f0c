package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"xlp/internal/term"
)

func q(t *testing.T, m *Machine, goal string) []term.Term {
	t.Helper()
	sols, err := m.Query(goal)
	if err != nil {
		t.Fatalf("Query(%s): %v", goal, err)
	}
	return sols
}

func TestRetractFacts(t *testing.T) {
	m := New()
	if err := m.Consult("p(1). p(2). p(3)."); err != nil {
		t.Fatal(err)
	}
	if got := q(t, m, "retract(p(2))"); len(got) != 1 {
		t.Fatalf("retract failed: %v", got)
	}
	if got := q(t, m, "p(X)"); len(got) != 2 {
		t.Fatalf("after retract: %v", got)
	}
	// retracting again with a variable removes the first remaining fact
	if got := q(t, m, "retract(p(X))"); len(got) != 1 ||
		term.Canonical(got[0]) != "retract(p(1))" {
		t.Fatalf("retract(p(X)) = %v", got)
	}
	// a bare-head pattern does not retract rules
	if err := m.Consult("r(X) :- p(X)."); err != nil {
		t.Fatal(err)
	}
	if got := q(t, m, "retract(r(_))"); len(got) != 0 {
		t.Fatal("bare-head retract must not remove rules")
	}
	if got := q(t, m, "retract((r(X) :- p(X)))"); len(got) != 1 {
		t.Fatalf("rule retract failed: %v", got)
	}
	// r/1 still exists but has no clauses: calls fail without error.
	if got := q(t, m, "r(3)"); len(got) != 0 {
		t.Fatalf("r/1 should be empty: %v", got)
	}
}

func TestRetractOnMissingPredicate(t *testing.T) {
	m := New()
	if got := q(t, m, "retract(zzz(1))"); len(got) != 0 {
		t.Fatal("retract on unknown predicate should just fail")
	}
}

func TestWriteOutput(t *testing.T) {
	m := New()
	var buf bytes.Buffer
	m.Out = &buf
	if _, err := m.Query("write(f(a, [1,2])), nl, writeln(done), tab(3), write(x)"); err != nil {
		t.Fatal(err)
	}
	want := "f(a,[1,2])\ndone\n   x"
	if buf.String() != want {
		t.Fatalf("output = %q, want %q", buf.String(), want)
	}
}

func TestSortMsort(t *testing.T) {
	m := New()
	got := q(t, m, "msort([3,1,2,1], L)")
	if term.Canonical(got[0]) != "msort([3,1,2,1],[1,1,2,3])" {
		t.Fatalf("msort: %v", got)
	}
	got = q(t, m, "sort([3,1,2,1], L)")
	if term.Canonical(got[0]) != "sort([3,1,2,1],[1,2,3])" {
		t.Fatalf("sort dedups: %v", got)
	}
}

func TestLengthModes(t *testing.T) {
	m := New()
	if got := q(t, m, "length([a,b,c], N)"); term.Canonical(got[0]) != "length([a,b,c],3)" {
		t.Fatalf("length forward: %v", got)
	}
	got := q(t, m, "length(L, 2)")
	if len(got) != 1 {
		t.Fatalf("length backward: %v", got)
	}
	if term.Canonical(got[0]) != "length([_0,_1],2)" {
		t.Fatalf("length backward: %s", term.Canonical(got[0]))
	}
	if _, err := m.Query("length(L, N)"); err == nil {
		t.Fatal("doubly-unbound length should error")
	}
}

func TestCopyTermFreshens(t *testing.T) {
	m := New()
	got := q(t, m, "copy_term(f(X, X, a), C)")
	c := got[0].(*term.Compound).Args[1]
	cc := term.Deref(c).(*term.Compound)
	if term.Compare(cc.Args[0], cc.Args[1]) != 0 {
		t.Fatal("sharing must be preserved in the copy")
	}
}

func TestUnivModes(t *testing.T) {
	m := New()
	if got := q(t, m, "T =.. [foo, 1, 2], T = foo(1, 2)"); len(got) != 1 {
		t.Fatalf("univ build: %v", got)
	}
	if got := q(t, m, "bar =.. L"); term.Canonical(got[0]) != "=..(bar,[bar])" {
		t.Fatalf("univ of atom: %v", got)
	}
	if _, err := m.Query("X =.. Y"); err == nil {
		t.Fatal("univ with both unbound should error")
	}
}

func TestCompare3(t *testing.T) {
	m := New()
	cases := map[string]string{
		"compare(O, 1, 2)":       "<",
		"compare(O, b, a)":       ">",
		"compare(O, f(X), f(X))": "=",
	}
	for goal, want := range cases {
		got := q(t, m, goal)
		if len(got) != 1 || !strings.Contains(term.Canonical(got[0]), "'"+want+"'") &&
			!strings.Contains(term.Canonical(got[0]), "("+want+",") {
			t.Fatalf("%s = %v (want %s)", goal, got, want)
		}
	}
}

func TestAggregateAllCount(t *testing.T) {
	m := New()
	if err := m.Consult("p(1). p(2). p(3)."); err != nil {
		t.Fatal(err)
	}
	got := q(t, m, "aggregate_all(count, p(_), N)")
	if term.Canonical(got[0]) != "aggregate_all(count,p(_0),3)" {
		t.Fatalf("count: %s", term.Canonical(got[0]))
	}
}

func TestUnifyWithOccursCheckBuiltin(t *testing.T) {
	m := New()
	if got := q(t, m, "unify_with_occurs_check(X, f(X))"); len(got) != 0 {
		t.Fatal("occur-check should fail")
	}
	if got := q(t, m, "unify_with_occurs_check(X, f(a))"); len(got) != 1 {
		t.Fatal("plain case should succeed")
	}
}

func TestIsListGroundCallable(t *testing.T) {
	m := New()
	yes := []string{
		"is_list([1,2])", "is_list([])",
		"ground(f(a, [1]))", "callable(foo)", "callable(f(X))",
		"atomic(3)", "atomic(a)", "compound(f(a))",
	}
	for _, g := range yes {
		if got := q(t, m, g); len(got) != 1 {
			t.Errorf("%s should succeed", g)
		}
	}
	no := []string{
		"is_list([1|_])", "ground(f(X))", "callable(3)",
		"atomic(f(a))", "compound(a)",
	}
	for _, g := range no {
		if got := q(t, m, g); len(got) != 0 {
			t.Errorf("%s should fail", g)
		}
	}
}

// The paper's §6.1: widening for infinite domains needs "(1) the
// knowledge of other returns already present in the table, and (2) a
// mechanism to modify ... the returns". The engine's AnswerDepth setting
// provides the on-the-fly approximation half: here an analysis over the
// infinite domain of successor terms is widened to depth 2, so the
// tabled evaluation terminates.
func TestAnswerAbstractionAsWidening(t *testing.T) {
	m := New()
	m.AnswerDepth = 2
	if err := m.Consult(`
		:- table nat/1.
		nat(z).
		nat(s(X)) :- nat(X).
	`); err != nil {
		t.Fatal(err)
	}
	sols, err := m.Query("nat(W)")
	if err != nil {
		t.Fatal(err)
	}
	// z, s(z), and the widened top element s(s(γ)) capping the chain:
	// s(s(s(γ))) cuts back to it — without the widening this query
	// would not terminate.
	var got []string
	for _, s := range sols {
		got = append(got, term.Canonical(s))
	}
	want := []string{"nat(z)", "nat(s(z))", "nat(s(s('$gamma')))"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("widened nat answers %v, want %v", got, want)
	}
}

// A repeated variable in a stored answer cannot come from AnswerDepth's
// linear insert. If the tables hold one anyway (here: filled with the
// setting off, then read with it on), abstract unification against it
// is an engine error, not a Go panic.
func TestAnswerDepthNonLinearAnswerIsError(t *testing.T) {
	m := New()
	if err := m.Consult(`
		:- table p/1.
		p(f(X, X)).
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("p(A)"); err != nil {
		t.Fatal(err)
	}
	m.AnswerDepth = 2
	_, err := m.Query("p(A)")
	if err == nil || !errors.Is(err, term.ErrNonLinear) {
		t.Fatalf("err = %v, want one wrapping term.ErrNonLinear", err)
	}
}
