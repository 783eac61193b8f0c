// Package depthk implements the paper's §5 non-enumerative groundness
// analysis with term-depth abstraction: the abstract domain is the set
// of terms of depth k or less over the program's function symbols, a
// special 0-ary symbol γ denoting the set of all ground terms, and
// variables. Abstract unification (γ absorbs ground terms, variables
// under it become γ) is implemented at the meta level — as a native
// builtin on the tabled engine, performing the occur-check — and every
// binding it creates is depth-cut, so the reachable call and answer
// terms form a finite domain and variant tabling terminates.
package depthk

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/analysis"
	"xlp/internal/engine"
	"xlp/internal/lint"
	"xlp/internal/prolog"
	"xlp/internal/supptab"
	"xlp/internal/term"
)

// Gamma is the abstract constant denoting "any ground term".
const Gamma = term.Atom("$gamma")

// Prefix for abstract predicate names.
const Prefix = "gk_"

// CutDepth returns a copy of t in which every subterm at depth k is
// replaced: ground subterms by γ, non-ground ones by a fresh variable.
func CutDepth(t term.Term, k int) term.Term {
	t = term.Deref(t)
	if k <= 0 {
		// The abstract domain contains terms of depth at most k: below
		// that, only γ (all ground terms, including atoms and integers)
		// and fresh variables remain.
		switch t.(type) {
		case *term.Var:
			return t
		default:
			if term.IsGround(t) {
				return Gamma
			}
			return term.NewVar("_")
		}
	}
	switch t := t.(type) {
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = CutDepth(a, k-1)
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// AbstractUnify unifies abstract terms a and b on the given trail with
// the occur-check, treating γ as "all ground terms" and depth-cutting
// every binding at k. It reports success; on failure the trail is
// restored.
func AbstractUnify(a, b term.Term, k int, tr *term.Trail) bool {
	mark := tr.Mark()
	if aunify(a, b, k, tr) {
		return true
	}
	tr.Undo(mark)
	return false
}

func aunify(a, b term.Term, k int, tr *term.Trail) bool {
	a, b = term.Deref(a), term.Deref(b)
	if a == b {
		return true
	}
	if av, ok := a.(*term.Var); ok {
		if term.Occurs(av, b) {
			return false
		}
		tr.Bind(av, CutDepth(b, k))
		return true
	}
	if bv, ok := b.(*term.Var); ok {
		if term.Occurs(bv, a) {
			return false
		}
		tr.Bind(bv, CutDepth(a, k))
		return true
	}
	// γ absorbs any term that can denote ground terms: bind all its
	// variables to γ.
	if a == Gamma {
		return groundOut(b, tr)
	}
	if b == Gamma {
		return groundOut(a, tr)
	}
	switch at := a.(type) {
	case term.Atom:
		bt, ok := b.(term.Atom)
		return ok && at == bt
	case term.Int:
		bt, ok := b.(term.Int)
		return ok && at == bt
	case *term.Compound:
		bt, ok := b.(*term.Compound)
		if !ok || bt.Functor != at.Functor || len(bt.Args) != len(at.Args) {
			return false
		}
		for i := range at.Args {
			if !aunify(at.Args[i], bt.Args[i], k, tr) {
				return false
			}
		}
		return true
	}
	return false
}

// linearize replaces every variable occurrence of t by a fresh variable,
// dropping sharing (equality) constraints — a widening applied to
// recorded answers.
func linearize(t term.Term) term.Term {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		return term.NewVar("_")
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = linearize(a)
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// groundOut binds every variable of t to γ (unifying t with the set of
// ground terms).
func groundOut(t term.Term, tr *term.Trail) bool {
	for _, v := range term.Vars(t) {
		tr.Bind(v, Gamma)
	}
	return true
}

// IsGroundAbstract reports whether an abstract term denotes only ground
// terms (no free variables; γ counts as ground).
func IsGroundAbstract(t term.Term) bool {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		return false
	case *term.Compound:
		for _, a := range t.Args {
			if !IsGroundAbstract(a) {
				return false
			}
		}
	}
	return true
}

// RegisterBuiltins installs aunify/2 and gground/1 on a machine for the
// given depth bound.
func RegisterBuiltins(m *engine.Machine, k int) {
	m.Register("aunify/2", func(m *engine.Machine, args []term.Term, kont func() bool) bool {
		tr := m.BuiltinTrail()
		mark := tr.Mark()
		if AbstractUnify(args[0], args[1], k, tr) {
			if kont() {
				tr.Undo(mark)
				return true
			}
		}
		tr.Undo(mark)
		return false
	})
	// aabs(C, S): bind the fresh variable C to the linearized depth-cut
	// of S — the call-pattern widening. Sharing constraints between call
	// arguments are dropped from the call key (the post-call aunify
	// restores the bindings), which keeps the set of call variants small
	// on benchmarks like read.
	m.Register("aabs/2", func(m *engine.Machine, args []term.Term, kont func() bool) bool {
		tr := m.BuiltinTrail()
		c, ok := term.Deref(args[0]).(*term.Var)
		if !ok {
			return false // unreachable by construction of the transform
		}
		mark := tr.Mark()
		tr.Bind(c, linearize(CutDepth(args[1], k)))
		if kont() {
			tr.Undo(mark)
			return true
		}
		tr.Undo(mark)
		return false
	})
	// gground(T): constrain T to ground (used for is/2 etc.).
	m.Register("gground/1", func(m *engine.Machine, args []term.Term, kont func() bool) bool {
		tr := m.BuiltinTrail()
		mark := tr.Mark()
		if aunifyGround(args[0], tr) {
			if kont() {
				tr.Undo(mark)
				return true
			}
		}
		tr.Undo(mark)
		return false
	})
}

func aunifyGround(t term.Term, tr *term.Trail) bool {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		tr.Bind(t, Gamma)
		return true
	default:
		return groundOut(t, tr)
	}
}

// ---------------------------------------------------------------------------
// Transformation

// Transformed is the abstract program.
type Transformed struct {
	Clauses []term.Term
	Preds   map[string]string // source indicator -> abstract indicator
	Called  []string          // abstract indicators referenced but undefined
}

// Transform derives the depth-k abstract program: head unification and
// source-level '=' go through aunify/2; calls pass depth-cut copies of
// their arguments and re-unify afterwards; builtins are abstracted as in
// the Prop analysis but over the term domain.
func Transform(clauses []term.Term) (*Transformed, error) {
	tf := &Transformed{Preds: map[string]string{}}
	called := map[string]bool{}
	defined := map[string]bool{}
	for _, c := range clauses {
		head, body := prolog.SplitClause(c)
		if head == nil {
			continue
		}
		ind, ok := term.Indicator(head)
		if !ok {
			return nil, fmt.Errorf("depthk: non-callable clause head %v", head)
		}
		absInd, err := tf.clause(head, body, called)
		if err != nil {
			return nil, err
		}
		tf.Preds[ind] = absInd
		defined[absInd] = true
	}
	for ind := range called {
		if !defined[ind] {
			tf.Called = append(tf.Called, ind)
		}
	}
	sort.Strings(tf.Called)
	return tf, nil
}

func absName(name string) string { return Prefix + name }

func (tf *Transformed) clause(head, body term.Term, called map[string]bool) (string, error) {
	name, args, _ := term.FunctorArity(head)
	absArgs := make([]term.Term, len(args))
	var lits []term.Term
	for i, t := range args {
		x := term.NewVar("X")
		absArgs[i] = x
		lits = append(lits, term.Comp("aunify", x, t))
	}
	bodyLits, err := goals(body, called)
	if err != nil {
		return "", err
	}
	lits = append(lits, bodyLits...)
	absHead := term.NewCompound(absName(name), absArgs...)
	absInd, _ := term.Indicator(absHead)
	if len(lits) == 0 {
		tf.Clauses = append(tf.Clauses, absHead)
	} else {
		tf.Clauses = append(tf.Clauses, term.Comp(":-", absHead, conjoin(lits)))
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

func seq(lits []term.Term) term.Term {
	if len(lits) == 0 {
		return term.Atom("true")
	}
	return conjoin(lits)
}

func goals(body term.Term, called map[string]bool) ([]term.Term, error) {
	g := term.Deref(body)
	f, args, ok := term.FunctorArity(g)
	if !ok {
		return nil, fmt.Errorf("depthk: non-callable body goal %v", g)
	}
	switch {
	case f == "," && len(args) == 2:
		l, err := goals(args[0], called)
		if err != nil {
			return nil, err
		}
		r, err := goals(args[1], called)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case f == ";" && len(args) == 2:
		a0 := term.Deref(args[0])
		if ite, ok := a0.(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
			l, err := goals(term.Comp(",", ite.Args[0], ite.Args[1]), called)
			if err != nil {
				return nil, err
			}
			r, err := goals(args[1], called)
			if err != nil {
				return nil, err
			}
			return []term.Term{term.Comp(";", seq(l), seq(r))}, nil
		}
		l, err := goals(args[0], called)
		if err != nil {
			return nil, err
		}
		r, err := goals(args[1], called)
		if err != nil {
			return nil, err
		}
		return []term.Term{term.Comp(";", seq(l), seq(r))}, nil
	case f == "->" && len(args) == 2:
		return goals(term.Comp(",", args[0], args[1]), called)
	case (f == "\\+" || f == "not") && len(args) == 1,
		f == "!" && len(args) == 0,
		f == "true" && len(args) == 0,
		f == "call" && len(args) == 1:
		return nil, nil
	case (f == "fail" || f == "false") && len(args) == 0:
		return []term.Term{term.Atom("fail")}, nil
	case f == "=" && len(args) == 2:
		return []term.Term{term.Comp("aunify", args[0], args[1])}, nil
	}
	if lits, handled := builtinAbstraction(f, args); handled {
		return lits, nil
	}
	// User call: pass linearized depth-cut copies (the call-pattern
	// widening), then merge the answer back with abstract unification.
	var lits []term.Term
	fresh := make([]term.Term, len(args))
	for i, s := range args {
		c := term.NewVar("C")
		fresh[i] = c
		lits = append(lits, term.Comp("aabs", c, s))
	}
	callee := term.NewCompound(absName(f), fresh...)
	ind, _ := term.Indicator(callee)
	called[ind] = true
	lits = append(lits, callee)
	for i, s := range args {
		lits = append(lits, term.Comp("aunify", fresh[i], s))
	}
	return lits, nil
}

func builtinAbstraction(f string, args []term.Term) ([]term.Term, bool) {
	groundAll := func(ts ...term.Term) []term.Term {
		var out []term.Term
		for _, t := range ts {
			out = append(out, term.Comp("gground", t))
		}
		return out
	}
	switch fmt.Sprintf("%s/%d", f, len(args)) {
	case "is/2", "</2", ">/2", "=</2", ">=/2", "=:=/2", "=\\=/2",
		"succ/2", "plus/3", "between/3",
		"name/2", "atom_codes/2", "atom_chars/2", "number_codes/2",
		"atom_length/2", "char_code/2",
		"ground/1", "atom/1", "atomic/1", "number/1", "integer/1", "float/1":
		return groundAll(args...), true
	case "functor/3":
		return groundAll(args[1], args[2]), true
	case "arg/3":
		return groundAll(args[0]), true
	case "=../2", "copy_term/2", "length/2", "sort/2", "msort/2", "reverse/2",
		"var/1", "nonvar/1", "==/2", "\\==/2", "@</2", "@>/2",
		"@=</2", "@>=/2", "\\=/2",
		"write/1", "print/1", "writeln/1", "nl/0", "tab/1",
		"read/1", "assert/1", "asserta/1", "assertz/1", "retract/1",
		"findall/3", "bagof/3", "setof/3", "halt/0":
		// Conservative: no constraint (all are sound over-approximations
		// for the term-depth domain).
		return nil, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Domain

// Options configure a depth-k analysis run; depthk also reads K and
// NoSupplementary.
type Options = analysis.Options

// PredResult is the result for one predicate.
type PredResult struct {
	Indicator  string
	Arity      int
	Answers    []term.Term // abstract success patterns
	GroundArgs []bool      // argument ground (γ or ground term) in every answer
	// Reachable is false when no call to the predicate was recorded
	// (goal-directed analysis of dead code).
	Reachable bool
}

// Format renders the abstract answers with γ.
func (r *PredResult) Format() string {
	parts := make([]string, len(r.Answers))
	for i, a := range r.Answers {
		parts[i] = strings.ReplaceAll(a.String(), string(Gamma), "γ")
	}
	return strings.Join(parts, " ; ")
}

// Analysis is a full run, with the Table 4 cost breakdown.
type Analysis struct {
	analysis.Report
	Results map[string]*PredResult
	K       int
}

// Analyze runs depth-k groundness analysis on a Prolog source program.
func Analyze(src string, opts Options) (*Analysis, error) {
	if opts.K <= 0 {
		opts.K = 2
	}
	d := &domain{opts: opts, a: &Analysis{Results: map[string]*PredResult{}, K: opts.K}}
	rep, err := analysis.Run(src, opts, d)
	if err != nil {
		return nil, err
	}
	d.a.Report = rep
	return d.a, nil
}

// domain is depth-k groundness on the analysis pipeline.
type domain struct {
	opts    Options
	a       *Analysis
	full    []term.Term // the parsed program
	defined []string    // its predicates, in definition order
	tf      *Transformed
}

func (d *domain) Name() string { return "depthk" }

func (d *domain) Parse(src string) ([]string, error) {
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	d.full = clauses
	d.defined = lint.Predicates(clauses)
	return d.defined, nil
}

func (d *domain) Transform(keep []string) (map[string]string, error) {
	clauses := d.full
	if keep != nil {
		clauses = lint.Slice(clauses, keep)
	}
	tf, err := Transform(clauses)
	if err != nil {
		return nil, err
	}
	d.tf = tf
	return tf.Preds, nil
}

func (d *domain) Load(m *engine.Machine) error {
	k := d.opts.K
	RegisterBuiltins(m, k)
	// Keep the answer tables finite: cut every recorded answer at depth
	// k (cut-at-binding alone does not bound structures composed across
	// body literals), and match calls against the abstracted answers
	// with abstract unification so γ keeps denoting "any ground term".
	m.AnswerAbstraction = func(ans term.Term) term.Term {
		name, args, ok := term.FunctorArity(ans)
		if !ok || len(args) == 0 {
			return ans
		}
		if !strings.HasPrefix(name, Prefix) {
			// Auxiliary (supplementary) tables carry intra-clause
			// tuples whose variable sharing must be preserved.
			return ans
		}
		cut := make([]term.Term, len(args))
		for i, a := range args {
			// Linearizing (each variable occurrence becomes a fresh
			// variable) widens away sharing constraints between answer
			// positions; without it the variant table distinguishes
			// every sharing pattern and the answer space explodes.
			cut[i] = linearize(CutDepth(a, k))
		}
		return term.NewCompound(name, cut...)
	}
	m.AbstractUnify = func(a, b term.Term, tr *term.Trail) bool {
		return AbstractUnify(a, b, k, tr)
	}
	// Goal-directed runs reach inner calls whose arguments compose
	// depth-cut bindings into ever-deeper (or combinatorially many)
	// variants; abstracting every call to the predicate's most general
	// call folds them all into one open table per reachable predicate —
	// the exhaustive analysis restricted to the entries' cone, with the
	// answers each concrete call sees filtered by abstract unification.
	// Exhaustive runs keep exact calls (the established Table 4 mode).
	if len(d.opts.Entry) > 0 {
		m.CallAbstraction = func(call term.Term) term.Term {
			name, args, ok := term.FunctorArity(call)
			if !ok || len(args) == 0 || !strings.HasPrefix(name, Prefix) {
				return call
			}
			fresh := make([]term.Term, len(args))
			for i := range fresh {
				fresh[i] = term.NewVar("C")
			}
			return term.NewCompound(name, fresh...)
		}
	}
	absClauses := d.tf.Clauses
	var extraTabled []string
	if !d.opts.NoSupplementary {
		st := supptab.Transform(absClauses, 4)
		absClauses = st.Clauses
		extraTabled = st.Tabled
	}
	if err := m.ConsultTerms(absClauses); err != nil {
		return err
	}
	for _, abs := range d.tf.Preds {
		m.Table(abs)
	}
	for _, abs := range d.tf.Called {
		m.Table(abs)
	}
	m.Table(extraTabled...)
	return nil
}

// Goals open-calls each entry predicate in indicator order. Results are
// a fixpoint and do not depend on it, but the evaluation trajectory
// (resolution and producer-pass counts) does; a map-order walk here made
// those counters differ from run to run on the same input, which the
// tables_trie_vs_stringmap oracle compares exactly.
func (d *domain) Goals(entries []analysis.Entry) []analysis.Goal {
	var goals []analysis.Goal
	for _, ind := range analysis.Indicators(entries) {
		goals = append(goals, analysis.Goal{Ind: ind, Call: term.OpenCall(d.tf.Preds[ind])})
	}
	return goals
}

// Collect gathers each predicate's abstract answers. Predicates sliced
// away have no tables; collecting them through the same path makes
// their (empty, unreachable) results match an unsliced run's.
func (d *domain) Collect(m *engine.Machine) {
	for _, ind := range d.defined {
		abs, analyzed := d.tf.Preds[ind]
		if !analyzed {
			name, arity := term.SplitIndicator(ind)
			abs = fmt.Sprintf("%s/%d", absName(name), arity)
		}
		d.a.Results[ind] = collect(m, ind, abs)
	}
}

func collect(m *engine.Machine, srcInd, absInd string) *PredResult {
	_, arity := term.SplitIndicator(absInd)
	res := &PredResult{Indicator: srcInd, Arity: arity}
	seen := map[string]bool{}
	for _, dump := range m.DumpTables(absInd) {
		res.Reachable = true
		for _, ans := range dump.Answers {
			key := term.Canonical(ans)
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Answers = append(res.Answers, ans)
		}
	}
	res.GroundArgs = make([]bool, arity)
	if len(res.Answers) == 0 {
		return res
	}
	for j := 0; j < arity; j++ {
		all := true
		for _, ans := range res.Answers {
			_, args, _ := term.FunctorArity(ans)
			if !IsGroundAbstract(args[j]) {
				all = false
				break
			}
		}
		res.GroundArgs[j] = all
	}
	return res
}
