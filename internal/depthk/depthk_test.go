package depthk

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xlp/internal/prop"
	"xlp/internal/term"
)

func TestCutDepth(t *testing.T) {
	// f(g(h(a))) cut at 2: the h(a) subterm is ground -> γ.
	tm := term.Comp("f", term.Comp("g", term.Comp("h", term.Atom("a"))))
	cut := CutDepth(tm, 2)
	if got := cut.String(); got != "f(g('$gamma'))" {
		t.Fatalf("CutDepth = %s", got)
	}
	// non-ground deep subterm becomes a fresh variable
	x := term.NewVar("X")
	tm2 := term.Comp("f", term.Comp("g", term.Comp("h", x)))
	cut2 := CutDepth(tm2, 2).(*term.Compound)
	inner := term.Deref(cut2.Args[0]).(*term.Compound)
	if _, ok := term.Deref(inner.Args[0]).(*term.Var); !ok {
		t.Fatalf("deep non-ground subterm should be a variable: %v", cut2)
	}
	// at the depth bound, ground terms (atoms included) become γ
	if CutDepth(term.Atom("a"), 0) != Gamma {
		t.Fatal("atom at the bound should become γ")
	}
	// above the bound, atoms are kept
	if CutDepth(term.Atom("a"), 1) != term.Atom("a") {
		t.Fatal("atom above the bound changed")
	}
	// nothing to cut: the term itself comes back, not a copy
	if CutDepth(tm, 4) != term.Term(tm) {
		t.Fatal("uncut term was copied")
	}
}

func TestAbstractUnifyGamma(t *testing.T) {
	var tr term.Trail
	// γ = f(X): X becomes γ.
	x := term.NewVar("X")
	if !AbstractUnify(Gamma, term.Comp("f", x), 3, &tr) {
		t.Fatal("γ should unify with f(X)")
	}
	if term.Deref(x) != Gamma {
		t.Fatalf("X = %v, want γ", term.Deref(x))
	}
	tr.Undo(0)
	// γ = atom succeeds, no bindings.
	if !AbstractUnify(Gamma, term.Atom("a"), 3, &tr) {
		t.Fatal("γ should absorb atoms")
	}
	// var = deep term: binding is cut.
	v := term.NewVar("V")
	deep := term.Comp("f", term.Comp("g", term.Comp("h", term.Atom("a"))))
	if !AbstractUnify(v, deep, 2, &tr) {
		t.Fatal("var = deep should succeed")
	}
	if got := term.Deref(v).String(); got != "f(g('$gamma'))" {
		t.Fatalf("bound value = %s, want cut form", got)
	}
	tr.Undo(0)
	// occur-check
	w := term.NewVar("W")
	if AbstractUnify(w, term.Comp("f", w), 3, &tr) {
		t.Fatal("occur-check must reject W = f(W)")
	}
	// clash
	if AbstractUnify(term.Atom("a"), term.Atom("b"), 3, &tr) {
		t.Fatal("clash must fail")
	}
}

// Soundness property: if two concrete (γ-free) terms unify, their
// abstract unification must succeed too (abstraction is an
// over-approximation).
func TestPropAbstractUnifySound(t *testing.T) {
	var gen func(r *rand.Rand, depth int, pool []*term.Var) term.Term
	gen = func(r *rand.Rand, depth int, pool []*term.Var) term.Term {
		if depth <= 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return term.Atom([]string{"a", "b"}[r.Intn(2)])
			case 1:
				return term.Int(r.Intn(3))
			default:
				return pool[r.Intn(len(pool))]
			}
		}
		n := 1 + r.Intn(2)
		args := make([]term.Term, n)
		for i := range args {
			args[i] = gen(r, depth-1, pool)
		}
		return term.NewCompound([]string{"f", "g"}[r.Intn(2)], args...)
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pool := []*term.Var{term.NewVar("P"), term.NewVar("Q")}
		a := gen(r, 3, pool)
		b := gen(r, 3, pool)
		var tr term.Trail
		concrete := term.UnifyOC(a, b, &tr)
		tr.Undo(0)
		abstract := AbstractUnify(a, b, 2, &tr)
		tr.Undo(0)
		// concrete success must imply abstract success
		return !concrete || abstract
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

const appendSrc = `
	ap([], Ys, Ys).
	ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
`

func TestAppendDepthK(t *testing.T) {
	a, err := Analyze(appendSrc, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := a.Results["ap/3"]
	if r == nil || len(r.Answers) == 0 {
		t.Fatal("no answers for ap/3")
	}
	// Open call: no argument is certainly ground.
	if r.GroundArgs[0] || r.GroundArgs[1] || r.GroundArgs[2] {
		t.Fatalf("append grounds nothing: %v (%s)", r.GroundArgs, r.Format())
	}
}

func TestGroundFactsDepthK(t *testing.T) {
	a, err := Analyze(`
		p(a, f(b)).
		p(c, g(d)).
		q(X) :- p(X, _).
		r(Y) :- s is 1 + 2, Y = s.
	`, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := a.Results["p/2"]
	if !p.GroundArgs[0] || !p.GroundArgs[1] {
		t.Fatalf("p args ground: %v", p.GroundArgs)
	}
	q := a.Results["q/1"]
	if !q.GroundArgs[0] {
		t.Fatalf("q arg ground: %s", q.Format())
	}
}

func TestArithmeticGroundsDepthK(t *testing.T) {
	a, err := Analyze(`
		len([], 0).
		len([_|T], N) :- len(T, M), N is M + 1.
	`, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln := a.Results["len/2"]
	if ln.GroundArgs[0] {
		t.Fatal("list arg not necessarily ground")
	}
	if !ln.GroundArgs[1] {
		t.Fatalf("count arg must be ground: %s", ln.Format())
	}
}

// Depth-k is at least as precise as Prop on certainly-ground facts?
// Not in general — but on the corpus-style programs the two analyses'
// certainly-ground judgements must not contradict soundness. Check
// consistency: if depth-k says ground, the concrete semantics grounds
// it; we cross-check against Prop (both sound, possibly incomparable).
func TestDepthKTermination(t *testing.T) {
	// A program whose concrete terms grow without bound: depth-k must
	// still terminate thanks to the cut.
	a, err := Analyze(`
		grow(X) :- grow(f(X)).
		grow(a).
	`, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Results["grow/1"] == nil {
		t.Fatal("no result")
	}
}

func TestFormatUsesGamma(t *testing.T) {
	a, err := Analyze(`p(f(a)).`, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Results["p/1"].Format(); !strings.Contains(got, "γ") && !strings.Contains(got, "f") {
		t.Fatalf("Format = %q", got)
	}
}

// The two groundness analyses must agree with each other in the sense
// that arguments BOTH deem certainly-ground are consistent, and on
// simple deterministic programs they coincide.
func TestAgreesWithPropOnSimplePrograms(t *testing.T) {
	srcs := []string{
		appendSrc,
		`p(a, b). p(c, d).`,
		`len([], 0). len([_|T], N) :- len(T, M), N is M + 1.`,
		`f(X, Y) :- X = g(Y).`,
	}
	for _, src := range srcs {
		dk, err := Analyze(src, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := prop.Analyze(src, prop.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for ind, d := range dk.Results {
			p := pr.Results[ind]
			if p == nil {
				continue
			}
			for i := range d.GroundArgs {
				if d.GroundArgs[i] != p.GroundArgs[i] {
					t.Errorf("%s arg %d: depthk=%v prop=%v (%s vs %s)",
						ind, i, d.GroundArgs[i], p.GroundArgs[i], d.Format(), p.FormatSuccess())
				}
			}
		}
	}
}
