// Package integration cross-validates the full pipelines against each
// other on the complete corpus and on randomly generated programs: the
// declarative tabled analyzer, the special-purpose GAIA-style abstract
// interpreter, and the BDD-based bottom-up analyzer all implement the
// same Prop-domain groundness analysis and must agree formula-for-
// formula (the paper's Table 2 note, taken as an executable invariant).
package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xlp/internal/bddprop"
	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/prop"
	"xlp/internal/strict"
)

// TestTripleAgreementOnCorpus checks prop == gaia == bddprop on every
// logic benchmark.
func TestTripleAgreementOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			pr, err := prop.Analyze(p.Source, prop.Options{})
			if err != nil {
				t.Fatalf("prop: %v", err)
			}
			ga, err := gaia.Analyze(p.Source)
			if err != nil {
				t.Fatalf("gaia: %v", err)
			}
			bd, err := bddprop.Analyze(p.Source)
			if err != nil {
				t.Fatalf("bddprop: %v", err)
			}
			for ind, r := range pr.Results {
				if g := ga.Results[ind]; g != nil && !g.Success.Equal(r.Success) {
					t.Errorf("%s: gaia %s != prop %s", ind, g.Success, r.FormatSuccess())
				}
				if b := bd.Results[ind]; b != nil {
					for row := 0; row < 1<<uint(r.Arity); row++ {
						if bd.Manager.Eval(b.Success, uint(row)) != r.Success.Row(uint(row)) {
							t.Errorf("%s: bdd disagrees at row %d", ind, row)
							break
						}
					}
				}
			}
		})
	}
}

// randomProgram builds a random definite logic program with list
// constructors, arithmetic, unification, and conditionals — the feature
// set all three analyzers must abstract identically.
func randomProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var src string
	// base facts with mixed groundness structure
	consts := []string{"a", "b", "f(a)", "g(a, b)"}
	for i := 0; i < 2+r.Intn(3); i++ {
		src += fmt.Sprintf("base%d(%s, %s).\n", r.Intn(2),
			consts[r.Intn(len(consts))], consts[r.Intn(len(consts))])
	}
	// rules over p/2, q/2, r/2
	bodies := []string{
		"base0(X, Y)",
		"base1(Y, X)",
		"p(X, Z), p(Z, Y)",
		"q(Y, X)",
		"X = f(Y)",
		"X = [Y|T], q(T, Y)",
		"Y is 1 + 2, q(X, _)",
		"( X = a ; q(X, Y) )",
		"p(X, Y), X == Y",
	}
	heads := []string{"p(X, Y)", "q(X, Y)", "r(X, Y)"}
	n := 3 + r.Intn(5)
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("%s :- %s.\n", heads[r.Intn(len(heads))], bodies[r.Intn(len(bodies))])
	}
	// make sure every predicate is defined
	src += "p(a, a).\nq(a, a).\nr(a, a).\nbase0(a, a).\nbase1(a, a).\n"
	return src
}

// TestPropRandomTripleAgreement is the randomized version: three
// independent implementations of one abstraction, checked for exact
// agreement on generated programs.
func TestPropRandomTripleAgreement(t *testing.T) {
	f := func(seed int64) bool {
		src := randomProgram(seed)
		pr, err := prop.Analyze(src, prop.Options{})
		if err != nil {
			t.Logf("seed %d: prop: %v\n%s", seed, err, src)
			return false
		}
		ga, err := gaia.Analyze(src)
		if err != nil {
			t.Logf("seed %d: gaia: %v\n%s", seed, err, src)
			return false
		}
		bd, err := bddprop.Analyze(src)
		if err != nil {
			t.Logf("seed %d: bddprop: %v\n%s", seed, err, src)
			return false
		}
		for ind, r := range pr.Results {
			g := ga.Results[ind]
			if g == nil || !g.Success.Equal(r.Success) {
				t.Logf("seed %d: %s gaia mismatch\n%s", seed, ind, src)
				return false
			}
			b := bd.Results[ind]
			if b == nil {
				t.Logf("seed %d: %s missing in bdd", seed, ind)
				return false
			}
			for row := 0; row < 1<<uint(r.Arity); row++ {
				if bd.Manager.Eval(b.Success, uint(row)) != r.Success.Row(uint(row)) {
					t.Logf("seed %d: %s bdd mismatch row %d\n%s", seed, ind, row, src)
					return false
				}
			}
		}
		return true
	}
	n := 120
	if testing.Short() {
		n = 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestDepthKSoundAgainstProp: an argument depth-k calls certainly ground
// must... depth-k and Prop are incomparable in general, but both are
// sound, so on predicates where the CONCRETE semantics is simple
// (deterministic ground facts) both must say "ground".
func TestDepthKGroundFactsAgainstProp(t *testing.T) {
	src := `
		k(a, f(b), [c, d]).
		k(e, g(a), [b]).
		m(X) :- k(X, _, _).
	`
	dk, err := depthk.Analyze(src, depthk.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := prop.Analyze(src, prop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ind := range []string{"k/3", "m/1"} {
		for i := range dk.Results[ind].GroundArgs {
			if !dk.Results[ind].GroundArgs[i] || !pr.Results[ind].GroundArgs[i] {
				t.Errorf("%s arg %d: depthk=%v prop=%v", ind, i,
					dk.Results[ind].GroundArgs[i], pr.Results[ind].GroundArgs[i])
			}
		}
	}
}

// TestStrictnessCorpusSmoke runs the full strictness pipeline on every
// functional benchmark and sanity-checks invariants: demands are
// monotone (UnderE >= UnderD pointwise never holds in general — but
// both are valid lattice points), and main (if present) exists.
func TestStrictnessCorpusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if p.Name == "odprove" || p.Name == "strassen" {
				t.Parallel() // the two heavy ones can overlap others
			}
			a, err := strict.Analyze(p.Source, strict.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Results) < 3 {
				t.Fatalf("only %d functions", len(a.Results))
			}
			for _, r := range a.Results {
				if len(r.UnderE) != r.Arity || len(r.UnderD) != r.Arity {
					t.Fatalf("%s: malformed result", r.Indicator)
				}
			}
		})
	}
}

// TestSupplementaryTablingAgreement: the supptab-transformed strictness
// analysis computes the same verdicts as the plain one, corpus-wide.
func TestSupplementaryTablingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			plain, err := strict.Analyze(p.Source, strict.Options{NoSupplementary: true})
			if err != nil {
				t.Fatal(err)
			}
			supp, err := strict.Analyze(p.Source, strict.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for ind, rp := range plain.Results {
				rs := supp.Results[ind]
				for i := 0; i < rp.Arity; i++ {
					if rp.UnderE[i] != rs.UnderE[i] || rp.UnderD[i] != rs.UnderD[i] {
						t.Errorf("%s arg %d: plain e=%v d=%v, supp e=%v d=%v",
							ind, i, rp.UnderE[i], rp.UnderD[i], rs.UnderE[i], rs.UnderD[i])
					}
				}
			}
		})
	}
}

// TestLoadModesAgreeOnCorpus: dynamic and closure-compiled loading give the same
// groundness results everywhere.
func TestLoadModesAgreeOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.LogicPrograms() {
		d, err := prop.Analyze(p.Source, prop.Options{Mode: engine.LoadDynamic})
		if err != nil {
			t.Fatal(err)
		}
		c, err := prop.Analyze(p.Source, prop.Options{Mode: engine.ModeClosure})
		if err != nil {
			t.Fatal(err)
		}
		for ind, rd := range d.Results {
			if !rd.Success.Equal(c.Results[ind].Success) {
				t.Errorf("%s/%s: load modes disagree", p.Name, ind)
			}
		}
	}
}
