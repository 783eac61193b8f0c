package prop

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/boolfn"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Prefix is prepended to predicate names in the abstract program:
// p/n in the source becomes gp_p/n (Figure 1's gp subscript).
const Prefix = "gp_"

// Transformed is the result of abstracting a source program.
type Transformed struct {
	Clauses []term.Term // abstract clauses (':-'(head,body) or facts)
	// Preds maps source indicators (p/n) to abstract ones (gp_p/n) for
	// every predicate *defined* in the source.
	Preds map[string]string
	// Called lists abstract indicators referenced in bodies but not
	// defined (undefined predicates fail; the analyzer declares them).
	Called []string
	// MaxIffArity is the largest iff/N arity emitted.
	MaxIffArity int
}

// Transform applies the Figure 1 transformation to the source clauses.
func Transform(clauses []term.Term) (*Transformed, error) {
	tr := &transformer{
		out: &Transformed{Preds: map[string]string{}},
	}
	called := map[string]bool{}
	defined := map[string]bool{}
	for _, c := range clauses {
		head, body := prolog.SplitClause(c)
		if head == nil {
			continue // directives do not take part in analysis
		}
		ind, ok := term.Indicator(head)
		if !ok {
			return nil, fmt.Errorf("prop: non-callable clause head %v", head)
		}
		if _, a := term.SplitIndicator(ind); a > boolfn.MaxVars {
			return nil, fmt.Errorf("prop: %s exceeds the %d-argument limit of the boolean domain", ind, boolfn.MaxVars)
		}
		absInd, err := tr.clause(head, body, called)
		if err != nil {
			return nil, err
		}
		tr.out.Preds[ind] = absInd
		defined[absInd] = true
	}
	for ind := range called {
		if !defined[ind] {
			if _, a := term.SplitIndicator(ind); a > boolfn.MaxVars {
				return nil, fmt.Errorf("prop: call to %s exceeds the %d-argument limit of the boolean domain",
					strings.TrimPrefix(ind, Prefix), boolfn.MaxVars)
			}
			tr.out.Called = append(tr.out.Called, ind)
		}
	}
	sort.Strings(tr.out.Called)
	return tr.out, nil
}

type transformer struct {
	out *Transformed
}

// absName maps a source predicate name to its abstract name.
func absName(name string) string { return Prefix + name }

// AbsIndicator maps p/n to gp_p/n.
func AbsIndicator(ind string) string {
	i := strings.LastIndexByte(ind, '/')
	return absName(ind[:i]) + ind[i:]
}

// clauseCtx carries the source-var to abstract-var mapping of one clause.
type clauseCtx struct {
	abs    map[*term.Var]*term.Var
	called map[string]bool
	t      *transformer
}

func (c *clauseCtx) absVar(v *term.Var) *term.Var {
	if av, ok := c.abs[v]; ok {
		return av
	}
	av := term.NewVar("T" + v.Name)
	c.abs[v] = av
	return av
}

// absArg returns the abstract term for one argument position together
// with any iff literal needed: a variable argument maps directly to its
// abstract variable (the T[x] = Tx rule); a non-variable argument t gets
// a fresh boolean variable α constrained by iff(α, Vars(t)).
func (c *clauseCtx) absArg(t term.Term) (term.Term, []term.Term) {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		return c.absVar(t), nil
	default:
		alpha := term.NewVar("A")
		vars := term.Vars(t)
		tvs := make([]term.Term, len(vars))
		for i, v := range vars {
			tvs[i] = c.absVar(v)
		}
		c.t.noteIffArity(1 + len(tvs))
		return alpha, []term.Term{iffTerm(alpha, tvs)}
	}
}

func (t *transformer) noteIffArity(k int) {
	if k > t.out.MaxIffArity {
		t.out.MaxIffArity = k
	}
}

// clause abstracts one source clause and appends the result.
func (t *transformer) clause(head, body term.Term, called map[string]bool) (string, error) {
	ctx := &clauseCtx{abs: map[*term.Var]*term.Var{}, called: called, t: t}
	name, args, _ := term.FunctorArity(head)
	var lits []term.Term
	absArgs := make([]term.Term, len(args))
	for i, a := range args {
		aa, ls := ctx.absArg(a)
		absArgs[i] = aa
		lits = append(lits, ls...)
	}
	bodyLits, err := ctx.goals(body)
	if err != nil {
		return "", err
	}
	lits = append(lits, bodyLits...)
	absHead := term.NewCompound(absName(name), absArgs...)
	absInd, _ := term.Indicator(absHead)
	if len(lits) == 0 {
		t.out.Clauses = append(t.out.Clauses, absHead)
	} else {
		t.out.Clauses = append(t.out.Clauses,
			term.Comp(":-", absHead, conjoin(lits)))
	}
	return absInd, nil
}

func conjoin(lits []term.Term) term.Term {
	out := lits[len(lits)-1]
	for i := len(lits) - 2; i >= 0; i-- {
		out = term.Comp(",", lits[i], out)
	}
	return out
}

// goals abstracts a body term into a flat literal list, handling control
// constructs recursively.
func (c *clauseCtx) goals(body term.Term) ([]term.Term, error) {
	g := term.Deref(body)
	f, args, ok := term.FunctorArity(g)
	if !ok {
		return nil, fmt.Errorf("prop: non-callable body goal %v", g)
	}
	switch {
	case f == "," && len(args) == 2:
		l, err := c.goals(args[0])
		if err != nil {
			return nil, err
		}
		r, err := c.goals(args[1])
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case f == ";" && len(args) == 2:
		// Abstract disjunction: (A ; B). If-then-else loses the commit
		// (sound over-approximation of the success set).
		a0 := term.Deref(args[0])
		if ite, ok := a0.(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
			thenLits, err := c.goals(term.Comp(",", ite.Args[0], ite.Args[1]))
			if err != nil {
				return nil, err
			}
			elseLits, err := c.goals(args[1])
			if err != nil {
				return nil, err
			}
			return []term.Term{term.Comp(";", seq(thenLits), seq(elseLits))}, nil
		}
		l, err := c.goals(args[0])
		if err != nil {
			return nil, err
		}
		r, err := c.goals(args[1])
		if err != nil {
			return nil, err
		}
		return []term.Term{term.Comp(";", seq(l), seq(r))}, nil
	case f == "->" && len(args) == 2:
		return c.goals(term.Comp(",", args[0], args[1]))
	case (f == "\\+" || f == "not") && len(args) == 1:
		// \+ G succeeds without bindings: no groundness effect.
		return nil, nil
	case f == "!" && len(args) == 0:
		return nil, nil
	case f == "true" && len(args) == 0:
		return nil, nil
	case (f == "fail" || f == "false") && len(args) == 0:
		return []term.Term{term.Atom("fail")}, nil
	case f == "=" && len(args) == 2:
		return c.absUnify(args[0], args[1])
	case f == "call" && len(args) == 1:
		// Unknown goal: could bind anything; no constraint is the only
		// sound choice for a may-analysis of success substitutions.
		return nil, nil
	}

	if lits, handled := c.builtinAbstraction(f, args); handled {
		return lits, nil
	}

	// Ordinary user predicate: abstract arguments, then call gp_q.
	var lits []term.Term
	absArgs := make([]term.Term, len(args))
	for i, a := range args {
		aa, ls := c.absArg(a)
		absArgs[i] = aa
		lits = append(lits, ls...)
	}
	callee := term.NewCompound(absName(f), absArgs...)
	ind, _ := term.Indicator(callee)
	c.called[ind] = true
	return append(lits, callee), nil
}

func seq(lits []term.Term) term.Term {
	if len(lits) == 0 {
		return term.Atom("true")
	}
	return conjoin(lits)
}

// absUnify abstracts t1 = t2 precisely: matching structure is decomposed
// pairwise; a variable against a term t yields Tv ↔ ∧Vars(t); clashing
// functors yield fail.
func (c *clauseCtx) absUnify(t1, t2 term.Term) ([]term.Term, error) {
	a, b := term.Deref(t1), term.Deref(t2)
	if av, ok := a.(*term.Var); ok {
		if bv, ok := b.(*term.Var); ok {
			// Same groundness value: alias the abstract variables.
			return []term.Term{term.Comp("=", c.absVar(av), c.absVar(bv))}, nil
		}
		vars := term.Vars(b)
		tvs := make([]term.Term, len(vars))
		for i, v := range vars {
			tvs[i] = c.absVar(v)
		}
		c.t.noteIffArity(1 + len(tvs))
		return []term.Term{iffTerm(c.absVar(av), tvs)}, nil
	}
	if _, ok := b.(*term.Var); ok {
		return c.absUnify(b, a)
	}
	switch at := a.(type) {
	case term.Atom:
		if bt, ok := b.(term.Atom); ok && at == bt {
			return nil, nil
		}
		return []term.Term{term.Atom("fail")}, nil
	case term.Int:
		if bt, ok := b.(term.Int); ok && at == bt {
			return nil, nil
		}
		return []term.Term{term.Atom("fail")}, nil
	case *term.Compound:
		bt, ok := b.(*term.Compound)
		if !ok || bt.Functor != at.Functor || len(bt.Args) != len(at.Args) {
			return []term.Term{term.Atom("fail")}, nil
		}
		var out []term.Term
		for i := range at.Args {
			ls, err := c.absUnify(at.Args[i], bt.Args[i])
			if err != nil {
				return nil, err
			}
			out = append(out, ls...)
		}
		return out, nil
	}
	return []term.Term{term.Atom("fail")}, nil
}

// groundAll emits iff(Tv) — i.e. Tv = true — for every variable of the
// given terms: the abstraction of builtins that require or produce
// ground arguments.
func (c *clauseCtx) groundAll(ts ...term.Term) []term.Term {
	var out []term.Term
	seen := map[*term.Var]bool{}
	for _, t := range ts {
		for _, v := range term.Vars(t) {
			if seen[v] {
				continue
			}
			seen[v] = true
			c.t.noteIffArity(1)
			out = append(out, iffTerm(c.absVar(v), nil))
		}
	}
	return out
}

// groundnessOf returns a single abstract variable describing the
// conjunction of the groundness of all variables in t.
func (c *clauseCtx) groundnessOf(t term.Term) (term.Term, []term.Term) {
	return c.absArg(t)
}

// builtinAbstraction maps known builtins to Prop constraints. It returns
// handled=false for unrecognized predicates (treated as user predicates).
func (c *clauseCtx) builtinAbstraction(f string, args []term.Term) ([]term.Term, bool) {
	switch fmt.Sprintf("%s/%d", f, len(args)) {
	case "is/2", "</2", ">/2", "=</2", ">=/2", "=:=/2", "=\\=/2",
		"succ/2", "plus/3", "between/3",
		"name/2", "atom_codes/2", "atom_chars/2", "number_codes/2",
		"atom_length/2", "char_code/2",
		"ground/1", "atom/1", "atomic/1", "number/1", "integer/1", "float/1":
		// All variables become (must be) ground.
		out := c.groundAll(args...)
		return out, true
	case "functor/3":
		// functor(T, F, A): F and A become ground; T's groundness is
		// not determined (only its principal functor is).
		return c.groundAll(args[1], args[2]), true
	case "arg/3":
		// arg(N, T, A): N ground; T ground implies A ground (T → A,
		// encoded as T ↔ T ∧ A).
		lits := c.groundAll(args[0])
		gt, l1 := c.groundnessOf(args[1])
		ga, l2 := c.groundnessOf(args[2])
		lits = append(lits, l1...)
		lits = append(lits, l2...)
		c.t.noteIffArity(3)
		lits = append(lits, iffTerm(gt, []term.Term{gt, ga}))
		return lits, true
	case "=../2":
		// T =.. L: T and L are equi-ground.
		gt, l1 := c.groundnessOf(args[0])
		gl, l2 := c.groundnessOf(args[1])
		lits := append(l1, l2...)
		c.t.noteIffArity(2)
		lits = append(lits, iffTerm(gt, []term.Term{gl}))
		return lits, true
	case "copy_term/2":
		// copy_term(A, B): if A is ground its copy is ground, so B
		// becomes ground (A → B).
		ga, l1 := c.groundnessOf(args[0])
		gb, l2 := c.groundnessOf(args[1])
		lits := append(l1, l2...)
		c.t.noteIffArity(3)
		lits = append(lits, iffTerm(ga, []term.Term{ga, gb}))
		return lits, true
	case "length/2":
		// length(L, N): N becomes ground; L's elements do not.
		return c.groundAll(args[1]), true
	case "sort/2", "msort/2", "reverse/2":
		// Output is equi-ground with input.
		ga, l1 := c.groundnessOf(args[0])
		gb, l2 := c.groundnessOf(args[1])
		lits := append(l1, l2...)
		c.t.noteIffArity(2)
		lits = append(lits, iffTerm(ga, []term.Term{gb}))
		return lits, true
	case "var/1", "nonvar/1", "==/2", "\\==/2", "@</2", "@>/2",
		"@=</2", "@>=/2", "\\=/2",
		"write/1", "print/1", "writeln/1", "nl/0", "tab/1",
		"read/1", "assert/1", "asserta/1", "assertz/1", "retract/1",
		"findall/3", "bagof/3", "setof/3", "halt/0":
		// No groundness effect (or unknowable; no constraint is sound).
		return nil, true
	}
	return nil, false
}
