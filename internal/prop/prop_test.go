package prop

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"xlp/internal/boolfn"
	"xlp/internal/engine"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

const appendSrc = `
	ap([], Ys, Ys).
	ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
`

// Figure 2 golden test: the success set of gp_ap must be exactly the
// truth table of X∧Y ↔ Z.
func TestFigure2AppendGroundness(t *testing.T) {
	a, err := Analyze(appendSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := a.Results["ap/3"]
	if r == nil {
		t.Fatal("no result for ap/3")
	}
	want := boolfn.Var(3, 0).And(boolfn.Var(3, 1)).Iff(boolfn.Var(3, 2))
	if !r.Success.Equal(want) {
		t.Fatalf("ap success = %s, want X∧Y↔Z (%s)", r.FormatSuccess(), want)
	}
	// The paper's §3.1 lists the 4 rows explicitly.
	if r.Success.Count() != 4 {
		t.Fatalf("ap success rows = %d, want 4", r.Success.Count())
	}
	if r.GroundArgs[0] || r.GroundArgs[1] || r.GroundArgs[2] {
		t.Fatal("append grounds no argument unconditionally")
	}
}

func TestTransformAppendShape(t *testing.T) {
	clauses, err := prolog.ParseProgram(appendSrc)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := Transform(clauses)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Clauses) != 2 {
		t.Fatalf("abstract clauses = %d, want 2", len(tf.Clauses))
	}
	// First clause: head arg1 is [], so iff(A1); args 2,3 are the same
	// variable, so the head shares one abstract variable.
	c0 := term.Canonical(tf.Clauses[0])
	if c0 != ":-(gp_ap(_0,_1,_1),iff(_0))" {
		t.Fatalf("clause 0 = %s", c0)
	}
	// Second clause: iff for both cons cells, recursive gp_ap call.
	c1 := term.Canonical(tf.Clauses[1])
	if !strings.Contains(c1, "gp_ap(") || strings.Count(c1, "iff(") != 2 {
		t.Fatalf("clause 1 = %s", c1)
	}
	if tf.Preds["ap/3"] != "gp_ap/3" {
		t.Fatalf("Preds = %v", tf.Preds)
	}
}

func TestGroundFactAnalysis(t *testing.T) {
	a, err := Analyze(`
		p(a, b).
		p(c, d).
		q(X) :- p(X, _).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := a.Results["p/2"]
	if !p.GroundArgs[0] || !p.GroundArgs[1] {
		t.Fatalf("p's args must be certainly ground: %v (%s)", p.GroundArgs, p.FormatSuccess())
	}
	q := a.Results["q/1"]
	if !q.GroundArgs[0] {
		t.Fatalf("q's arg must be ground: %s", q.FormatSuccess())
	}
}

func TestArithmeticGrounds(t *testing.T) {
	a, err := Analyze(`
		inc(X, Y) :- Y is X + 1.
		len([], 0).
		len([_|T], N) :- len(T, M), N is M + 1.
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := a.Results["inc/2"]
	if !inc.GroundArgs[0] || !inc.GroundArgs[1] {
		t.Fatalf("is/2 must ground both args of inc: %s", inc.FormatSuccess())
	}
	ln := a.Results["len/2"]
	if ln.GroundArgs[0] {
		t.Fatal("len's list arg is not necessarily ground")
	}
	if !ln.GroundArgs[1] {
		t.Fatalf("len's count arg must be ground: %s", ln.FormatSuccess())
	}
}

func TestUnificationDecomposition(t *testing.T) {
	// X = f(A,B) followed by A = a: precise pairwise decomposition means
	// X's groundness is A∧B, so X ground iff B ground.
	a, err := Analyze(`
		p(X, B) :- X = f(A, B), A = a.
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := a.Results["p/2"]
	// success formula: X ↔ B
	want := boolfn.Var(2, 0).Iff(boolfn.Var(2, 1))
	if !p.Success.Equal(want) {
		t.Fatalf("p success = %s, want X↔B", p.FormatSuccess())
	}
}

func TestFailingUnification(t *testing.T) {
	a, err := Analyze(`
		p(X) :- X = a, X = b.
		q(X) :- f(X) = g(X).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Results["q/1"].Success.IsFalse() {
		t.Fatal("clashing functors must yield empty success set")
	}
	// p: X=a gives TX=true; X=b after X=a is a concrete failure but the
	// Prop abstraction only sees TX↔true twice — success set is X=true.
	// (Sound over-approximation.)
	if a.Results["p/1"].Success.IsFalse() {
		t.Fatal("p's abstraction should over-approximate, not be empty")
	}
}

func TestDisjunctionAndITE(t *testing.T) {
	a, err := Analyze(`
		p(X) :- ( X = a ; X = f(Y), q(Y) ).
		q(a).
		r(X, Y) :- ( X = a -> Y = b ; Y = c ).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := a.Results["p/1"]
	if !p.GroundArgs[0] {
		t.Fatalf("both branches ground X: %s", p.FormatSuccess())
	}
	r := a.Results["r/2"]
	if !r.GroundArgs[1] {
		t.Fatalf("both ITE branches ground Y: %s", r.FormatSuccess())
	}
	if r.GroundArgs[0] {
		t.Fatal("X is only ground on the then-branch")
	}
}

func TestGoalDirectedInputPatterns(t *testing.T) {
	a, err := Analyze(`
		main :- p(a, X), q(X).
		p(a, b).
		q(_).
	`, Options{Entry: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	p := a.Results["p/2"]
	if !p.Reachable || len(p.Calls) != 1 {
		t.Fatalf("p calls = %v", p.Calls)
	}
	// p is called with first arg ground, second free.
	if p.Calls[0].Args[0] != Ground || p.Calls[0].Args[1] == Ground {
		t.Fatalf("p call pattern = %v", p.Calls[0])
	}
	// q is called with its argument ground (bound to b through p).
	q := a.Results["q/1"]
	if len(q.Calls) != 1 || q.Calls[0].Args[0] != Ground {
		t.Fatalf("q call pattern = %v", q.Calls)
	}
}

func TestUnreachableCode(t *testing.T) {
	a, err := Analyze(`
		main :- p(a).
		p(_).
		dead(X) :- X = 1.
	`, Options{Entry: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Results["dead/1"].Reachable {
		t.Fatal("dead/1 should be unreachable from main")
	}
	if !a.Results["p/1"].Reachable {
		t.Fatal("p/1 should be reachable")
	}
}

func TestUndefinedPredicateFailsFinitely(t *testing.T) {
	a, err := Analyze(`
		p(X) :- undefined_thing(X), X = a.
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Results["p/1"].Success.IsFalse() {
		t.Fatal("calls to undefined predicates have empty success sets")
	}
}

func TestPureIffMatchesNative(t *testing.T) {
	srcs := []string{
		appendSrc,
		`rev([], A, A). rev([X|Xs], A, R) :- rev(Xs, [X|A], R).`,
		`p(X, Y) :- X = f(Y). q(X) :- p(X, a).`,
	}
	for _, src := range srcs {
		a1, err := Analyze(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Analyze(src, Options{PureIff: true})
		if err != nil {
			t.Fatal(err)
		}
		for ind, r1 := range a1.Results {
			r2 := a2.Results[ind]
			if !r1.Success.Equal(r2.Success) {
				t.Fatalf("%s: native %s != pure %s", ind, r1.FormatSuccess(), r2.FormatSuccess())
			}
		}
	}
}

func TestCompiledModeMatchesDynamic(t *testing.T) {
	a1, err := Analyze(appendSrc, Options{Mode: engine.LoadDynamic})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(appendSrc, Options{Mode: engine.ModeClosure})
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Results["ap/3"].Success.Equal(a2.Results["ap/3"].Success) {
		t.Fatal("load modes must agree")
	}
}

func TestIffBuiltinEnumeration(t *testing.T) {
	m := engine.New()
	RegisterIff(m, 4)
	// iff(X, Y, Z): X ↔ Y∧Z has exactly 4 solutions (paper §3.1).
	sols, err := m.Query("iff(X, Y, Z)")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(sols))
	for i, s := range sols {
		got[i] = term.Canonical(s)
	}
	sort.Strings(got)
	want := []string{
		"iff(false,false,false)",
		"iff(false,false,true)",
		"iff(false,true,false)",
		"iff(true,true,true)",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iff/3 solutions = %v", got)
	}
	// Bound result prunes.
	sols, err = m.Query("iff(true, Y, Z)")
	if err != nil || len(sols) != 1 {
		t.Fatalf("iff(true,Y,Z) = %v, %v", sols, err)
	}
	// Shared variables stay consistent.
	sols, err = m.Query("iff(X, Y, Y)")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sols {
		c := s.(*term.Compound)
		if term.Compare(c.Args[1], c.Args[2]) != 0 {
			t.Fatalf("shared var solution inconsistent: %v", s)
		}
	}
	// iff(X) means X = true.
	sols, err = m.Query("iff(X)")
	if err != nil || len(sols) != 1 || term.Canonical(sols[0]) != "iff(true)" {
		t.Fatalf("iff/1 = %v, %v", sols, err)
	}
}

func TestAnalysisPhaseTimesPopulated(t *testing.T) {
	a, err := Analyze(appendSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() <= 0 {
		t.Fatal("total time must be positive")
	}
	if a.TableBytes <= 0 {
		t.Fatal("table space must be positive")
	}
	if a.AbstractSize != 2 {
		t.Fatalf("abstract size = %d", a.AbstractSize)
	}
}

// Mutual recursion through the abstract program exercises SCC completion
// in the analysis setting.
func TestMutuallyRecursivePredicates(t *testing.T) {
	a, err := Analyze(`
		even([]).
		even([_|T]) :- odd(T).
		odd([_|T]) :- even(T).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Results["even/1"].GroundArgs[0] || a.Results["odd/1"].GroundArgs[0] {
		t.Fatal("list skeletons are not necessarily ground")
	}
	if a.Results["even/1"].Success.IsFalse() {
		t.Fatal("even has successes")
	}
}

func TestNreverseGroundnessPropagation(t *testing.T) {
	// nrev is the classic: if the input list is ground, the output is.
	a, err := Analyze(`
		app([], Ys, Ys).
		app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
		nrev([], []).
		nrev([X|Xs], R) :- nrev(Xs, R1), app(R1, [X], R).
	`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nrev := a.Results["nrev/2"]
	// success formula should be exactly In ↔ Out
	want := boolfn.Var(2, 0).Iff(boolfn.Var(2, 1))
	if !nrev.Success.Equal(want) {
		t.Fatalf("nrev success = %s, want In↔Out", nrev.FormatSuccess())
	}
}

// The engine's answer tables are exactly the paper's "output groundness"
// and its call tables the "input groundness" — check that Table-1-style
// collection and goal-directed collection agree on success formulas.
func TestOpenAndGoalDirectedSuccessAgree(t *testing.T) {
	src := `
		main :- qsort([3, 1, 2], _).
		qsort([], []).
		qsort([X|Xs], S) :- part(Xs, X, L, G), qsort(L, SL), qsort(G, SG),
			app(SL, [X|SG], S).
		part([], _, [], []).
		part([Y|Ys], X, [Y|L], G) :- Y =< X, part(Ys, X, L, G).
		part([Y|Ys], X, L, [Y|G]) :- Y > X, part(Ys, X, L, G).
		app([], Ys, Ys).
		app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
	`
	open, err := Analyze(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	directed, err := Analyze(src, Options{Entry: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	// Goal-directed success information must be entailed by (at least as
	// strong as) the open-call information on every reachable predicate.
	for ind, d := range directed.Results {
		if !d.Reachable {
			continue
		}
		o := open.Results[ind]
		if !d.Success.Entails(o.Success) {
			t.Errorf("%s: goal-directed success not entailed by open-call success", ind)
		}
	}
	// And with a ground entry, qsort's outputs are ground.
	q := directed.Results["qsort/2"]
	if !q.GroundArgs[0] || !q.GroundArgs[1] {
		t.Errorf("qsort from ground entry: %v (%s)", q.GroundArgs, q.FormatSuccess())
	}
}
