package xlp

import (
	"context"
	"strings"
	"testing"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/randgen"
	"xlp/internal/term"
)

// FuzzAnalyzeGroundness drives the whole analysis pipeline — reader,
// transform, tabled engine, collection — on arbitrary program text
// under tight resource limits. Malformed input must fail with an error,
// never a panic, and a successful analysis must be internally
// consistent (per-predicate vectors sized to the arity).
func FuzzAnalyzeGroundness(f *testing.F) {
	for _, p := range corpus.LogicPrograms() {
		f.Add(p.Source)
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, shape := range randgen.Shapes() {
			g := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			if g.Lang == randgen.LangProlog {
				f.Add(g.Source)
			}
		}
	}
	f.Add(":- table p/1.\np(a).\np(f(X)) :- p(X).")
	limits := Limits{MaxDepth: 10_000, MaxAnswers: 20_000, MaxSubgoals: 2_000}
	f.Fuzz(func(t *testing.T, src string) {
		a, err := AnalyzeGroundness(src, GroundnessOptions{Limits: limits})
		if err != nil {
			return
		}
		for ind, r := range a.Results {
			if len(r.GroundArgs) != r.Arity {
				t.Fatalf("%s: %d ground-arg entries for arity %d", ind, len(r.GroundArgs), r.Arity)
			}
			if r.Success == nil && r.Reachable && r.AnswerCount > 0 {
				t.Fatalf("%s: reachable with %d answers but nil success formula", ind, r.AnswerCount)
			}
		}
		// The linter shares the reader; it must also accept the program.
		Lint(src, LintOptions{})
	})
}

// FuzzCompileSolve holds the closure-compiled clause backend
// (engine.ModeClosure, internal/compile) against the interpreter on
// arbitrary program text: both modes must derive the same solution
// sequence for an open call to every defined predicate, duplicates and
// derivation order included. Runs where either mode hits a resource
// limit are skipped — inline control steps (true/!/fail) are not
// depth-counted in closure mode, so limit errors can fire
// asymmetrically near the boundary.
func FuzzCompileSolve(f *testing.F) {
	for _, p := range corpus.LogicPrograms() {
		f.Add(p.Source)
	}
	for seed := int64(0); seed < 3; seed++ {
		for _, shape := range randgen.PrologShapes() {
			g := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			f.Add(g.Source)
		}
	}
	// Cut, if-then-else, negation, and write-mode structure building —
	// the specialization paths randgen rarely reaches.
	for _, s := range compileSolveHandSeeds {
		f.Add(s)
	}
	limits := engine.Limits{MaxDepth: 1_000, MaxAnswers: 1_000, MaxSubgoals: 300}
	const maxSolutions = 128
	f.Fuzz(func(t *testing.T, src string) {
		run := func(mode engine.LoadMode) (map[string]string, error) {
			// The deadline bounds pathological-but-finite search spaces;
			// a run that exceeds it errors and the input is skipped, in
			// either mode.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			m := engine.New()
			m.Mode = mode
			m.Limits = limits
			m.SetContext(ctx)
			if err := m.Consult(src); err != nil {
				return nil, err
			}
			out := map[string]string{}
			for _, ind := range m.Predicates() {
				goal := term.OpenCall(ind)
				var sols []string
				err := m.Solve(goal, func() bool {
					sols = append(sols, term.Canonical(term.Resolve(goal)))
					return len(sols) >= maxSolutions
				})
				if err != nil {
					return nil, err
				}
				out[ind] = strings.Join(sols, " ; ")
			}
			return out, nil
		}
		interp, errI := run(engine.LoadDynamic)
		closure, errC := run(engine.ModeClosure)
		if errI != nil || errC != nil {
			return
		}
		for ind, want := range interp {
			if got := closure[ind]; got != want {
				t.Fatalf("%s: closure solutions diverge\ninterp:  %s\nclosure: %s", ind, want, got)
			}
		}
		if len(closure) != len(interp) {
			t.Fatalf("predicate sets diverge: interp %d, closure %d", len(interp), len(closure))
		}
	})
}

// compileSolveHandSeeds are handwritten fuzz seeds targeting the
// compiled backend's control-flow corners.
var compileSolveHandSeeds = []string{
	"p(1). p(2). p(3).\nonce_p(X) :- p(X), !.\nd(X) :- (p(X), ! ; p(X)).",
	"p(1). p(2).\nite(X) :- (p(X) -> X = 1 ; X = 99).\nneg(X) :- p(X), \\+ X = 1.",
	"app([], Y, Y).\napp([H|T], Y, [H|Z]) :- app(T, Y, Z).\nmk(L) :- app(X, Y, [a,b,c]), app(Y, X, L).",
	":- table path/2.\nedge(a,b). edge(b,c). edge(c,a).\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).",
	"f(g(X, h(Y)), X, Y).\nq(A, B) :- f(Z, A, B), f(Z, B, A).",
	"n(z). n(s(X)) :- n(X), X = z.\nnn(X) :- n(X) ; n(s(s(z))).",
	// Clause-store changes must invalidate compiled code: asserta adds a
	// clause the cached code lacks, retract shortens the clause list, and
	// a retract inside a running call must not shift the clauses that
	// call was compiled from.
	"p(1). p(2).\nq(X) :- asserta(p(0)), p(X).",
	"p(1). p(2).\nr(X) :- retract(p(1)), p(X).",
	"p(1) :- retract(p(2)).\np(2). p(3).",
}
