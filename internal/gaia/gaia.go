// Package gaia implements a special-purpose, goal-dependent abstract
// interpreter for groundness analysis over the Prop domain — the role
// GAIA (Le Charlier & Van Hentenryck's generic abstract interpretation
// algorithm, the paper's Table 2 comparator) plays for the original
// study: a conventional, hand-built analyzer against which the
// declarative tabled-logic-programming analyzer is measured.
//
// It shares no evaluation machinery with the declarative analyzer: no
// logic engine, no abstract program. Prop elements are truth-table
// bitsets (boolfn.Fun) over a clause environment that is managed with
// variable liveness — variables are added when first mentioned and
// projected out after their last use, keeping the table width small.
// Predicates are analyzed per call pattern with memoized success
// patterns and chaotic iteration to the least fixpoint. The test suite
// checks that it computes exactly the same success formulas as the
// declarative analyzer on the corpus — the paper's "the results obtained
// on the two systems are identical".
package gaia

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"xlp/internal/boolfn"
	"xlp/internal/engine"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// MaxEnv bounds the truth-table environment width (live variables at any
// program point of one clause, plus callee arguments).
const MaxEnv = boolfn.MaxVars

// Result mirrors prop.PredResult for one predicate.
type Result struct {
	Indicator  string
	Arity      int
	Success    *boolfn.Fun
	GroundArgs []bool
}

// Analysis is a full run with timing.
type Analysis struct {
	Results      map[string]*Result
	PreprocTime  time.Duration
	AnalysisTime time.Duration
	Iterations   int // global chaotic-iteration passes
	Entries      int // distinct (predicate, call-pattern) pairs
	MaxWidth     int // widest environment encountered
	Timeline     *obs.Timeline
}

// Total returns preprocessing plus analysis time.
func (a *Analysis) Total() time.Duration { return a.PreprocTime + a.AnalysisTime }

type clause struct {
	head term.Term
	body []term.Term // top-level goals (disjunctions kept nested)
	// lastUse maps each clause variable to the index of the last
	// top-level goal mentioning it (-1: head only).
	lastUse map[*term.Var]int
}

type pred struct {
	ind     string
	arity   int
	clauses []*clause
}

type entryKey struct {
	ind  string
	call string
}

type entry struct {
	success *boolfn.Fun
}

type analyzer struct {
	preds      map[string]*pred
	table      map[entryKey]*entry
	inProgress map[entryKey]bool
	changed    bool
	maxWidth   int
	ctx        context.Context
}

// checkCtx aborts the analysis with the engine's typed cancellation
// errors once the context ends; polled at every predicate call so the
// latency is one clause body at worst.
func (az *analyzer) checkCtx() {
	if err := engine.CtxErr(az.ctx); err != nil {
		panic(gaiaError{err})
	}
}

type gaiaError struct{ err error }

func failf(format string, args ...any) {
	panic(gaiaError{fmt.Errorf("gaia: "+format, args...)})
}

// Analyze runs the analyzer over a Prolog source program, analyzing each
// predicate for the all-free call pattern (matching the declarative
// analyzer's open calls).
func Analyze(src string) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), src)
}

// AnalyzeCtx is Analyze with cooperative cancellation: once ctx ends the
// run fails with engine.ErrCanceled or engine.ErrDeadline.
func AnalyzeCtx(ctx context.Context, src string) (*Analysis, error) {
	return AnalyzeEntries(ctx, src, nil)
}

// AnalyzeEntries is AnalyzeCtx restricted to the call-graph cone of the
// entry points (indicators, bare names or goals, read by
// lint.ResolveEntry; one that selects nothing defined fails the run):
// only predicates in the cone are loaded and analyzed. Because a
// predicate's all-free fixpoint depends only on its callees — all inside
// the cone — the cone results are identical to a full run's; predicates
// outside it are simply absent from Results. Nil entries analyze the
// whole program.
func AnalyzeEntries(ctx context.Context, src string, entries []string) (*Analysis, error) {
	return AnalyzeTimed(ctx, src, entries, nil)
}

// AnalyzeTimed is AnalyzeEntries with a phase timeline: when tl is
// non-nil it records parse/load/solve/collect spans (the fixpoint
// iteration is the solve phase; this analyzer has no transform step).
func AnalyzeTimed(ctx context.Context, src string, entries []string, tl *obs.Timeline) (a *Analysis, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ge, ok := r.(gaiaError); ok {
				a, err = nil, ge.err
				return
			}
			panic(r)
		}
	}()
	defer tl.End()
	t0 := time.Now()
	tl.Start("parse")
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	tl.Start("load")
	if len(entries) > 0 {
		defined := lint.Predicates(clauses)
		var inds []string
		for _, e := range entries {
			sel, _, err := lint.ResolveEntry(e, defined)
			if err != nil {
				return nil, fmt.Errorf("gaia: %w", err)
			}
			inds = append(inds, sel...)
		}
		clauses = lint.Slice(clauses, inds)
	}
	az := &analyzer{
		preds:      map[string]*pred{},
		table:      map[entryKey]*entry{},
		inProgress: map[entryKey]bool{},
	}
	if ctx != nil && ctx.Done() != nil {
		az.ctx = ctx
	}
	for _, c := range clauses {
		head, body := prolog.SplitClause(c)
		if head == nil {
			continue
		}
		if err := az.load(head, body); err != nil {
			return nil, err
		}
	}
	pre := time.Since(t0)

	tl.Start("solve")
	t1 := time.Now()
	a = &Analysis{Results: map[string]*Result{}, PreprocTime: pre, Timeline: tl}
	for {
		az.changed = false
		a.Iterations++
		for _, p := range az.sortedPreds() {
			az.inProgress = map[entryKey]bool{}
			az.call(p, boolfn.True(p.arity))
		}
		if !az.changed {
			break
		}
		if a.Iterations > 10_000 {
			return nil, fmt.Errorf("gaia: fixpoint iteration runaway")
		}
	}
	tl.Start("collect")
	for _, p := range az.sortedPreds() {
		succ := az.lookup(p, boolfn.True(p.arity))
		r := &Result{
			Indicator:  p.ind,
			Arity:      p.arity,
			Success:    succ,
			GroundArgs: make([]bool, p.arity),
		}
		for i := 0; i < p.arity; i++ {
			r.GroundArgs[i] = succ.CertainlyGround(i)
		}
		a.Results[p.ind] = r
	}
	a.Entries = len(az.table)
	a.MaxWidth = az.maxWidth
	a.AnalysisTime = time.Since(t1)
	return a, nil
}

func (az *analyzer) sortedPreds() []*pred {
	inds := make([]string, 0, len(az.preds))
	for ind := range az.preds {
		inds = append(inds, ind)
	}
	sort.Strings(inds)
	out := make([]*pred, len(inds))
	for i, ind := range inds {
		out[i] = az.preds[ind]
	}
	return out
}

func (az *analyzer) load(head term.Term, body term.Term) error {
	ind, ok := term.Indicator(head)
	if !ok {
		return fmt.Errorf("gaia: non-callable head %v", head)
	}
	_, args, _ := term.FunctorArity(head)
	if len(args) > MaxEnv {
		return fmt.Errorf("gaia: %s exceeds the %d-argument limit of the boolean domain", ind, MaxEnv)
	}
	p, ok := az.preds[ind]
	if !ok {
		p = &pred{ind: ind, arity: len(args)}
		az.preds[ind] = p
	}
	goals := flattenBody(body)
	cl := &clause{head: head, body: goals, lastUse: map[*term.Var]int{}}
	for _, v := range term.Vars(head) {
		cl.lastUse[v] = -1
	}
	for gi, g := range goals {
		for _, v := range term.Vars(g) {
			cl.lastUse[v] = gi
		}
	}
	p.clauses = append(p.clauses, cl)
	return nil
}

// flattenBody keeps ';' and '->' nested (handled during evaluation) but
// flattens ','.
func flattenBody(body term.Term) []term.Term {
	var out []term.Term
	var walk func(t term.Term)
	walk = func(t term.Term) {
		if c, ok := term.Deref(t).(*term.Compound); ok && c.Functor == "," && len(c.Args) == 2 {
			walk(c.Args[0])
			walk(c.Args[1])
			return
		}
		out = append(out, t)
	}
	walk(body)
	return out
}

func (az *analyzer) key(p *pred, call *boolfn.Fun) entryKey {
	var sb strings.Builder
	for r := 0; r < 1<<uint(call.N()); r++ {
		if call.Row(uint(r)) {
			fmt.Fprintf(&sb, "%x,", r)
		}
	}
	return entryKey{ind: p.ind, call: sb.String()}
}

func (az *analyzer) lookup(p *pred, call *boolfn.Fun) *boolfn.Fun {
	k := az.key(p, call)
	if e, ok := az.table[k]; ok {
		return e.success
	}
	return boolfn.False(p.arity)
}

// call analyzes predicate p under the given call-pattern description.
func (az *analyzer) call(p *pred, call *boolfn.Fun) *boolfn.Fun {
	az.checkCtx()
	k := az.key(p, call)
	e, ok := az.table[k]
	if !ok {
		e = &entry{success: boolfn.False(p.arity)}
		az.table[k] = e
		az.changed = true
	}
	if az.inProgress[k] {
		return e.success
	}
	az.inProgress[k] = true
	defer delete(az.inProgress, k)

	result := boolfn.False(p.arity)
	for _, cl := range p.clauses {
		result = result.Or(az.clause(p, cl, call))
	}
	result = result.And(call)
	joined := e.success.Or(result)
	if !joined.Equal(e.success) {
		e.success = joined
		az.changed = true
	}
	return e.success
}

// env is a clause evaluation environment: an ordered set of live
// variables and a Prop description over them.
type env struct {
	az   *analyzer
	vars []*term.Var
	pos  map[*term.Var]int
	desc *boolfn.Fun
}

func (e *env) width() int { return len(e.vars) }

func (e *env) add(v *term.Var) {
	if _, ok := e.pos[v]; ok {
		return
	}
	if e.width()+1 > MaxEnv {
		failf("environment exceeds %d boolean variables", MaxEnv)
	}
	e.pos[v] = len(e.vars)
	e.vars = append(e.vars, v)
	e.desc = e.desc.ExtendBy(1)
	if e.width() > e.az.maxWidth {
		e.az.maxWidth = e.width()
	}
}

func (e *env) ensure(t term.Term) {
	for _, v := range term.Vars(t) {
		e.add(v)
	}
}

// forget projects out a variable and removes it from the environment by
// swapping it to the top position and dropping it (both word-parallel).
func (e *env) forget(v *term.Var) {
	i, ok := e.pos[v]
	if !ok {
		return
	}
	top := len(e.vars) - 1
	if i != top {
		e.desc = e.desc.SwapVars(i, top)
		moved := e.vars[top]
		e.vars[i] = moved
		e.pos[moved] = i
	}
	e.vars = e.vars[:top]
	delete(e.pos, v)
	e.desc = e.desc.ForgetTop()
}

// projectKeep returns f projected onto the given positions, in order,
// using word-parallel swap/forget steps and a final small reorder.
func projectKeep(f *boolfn.Fun, keep []int) *boolfn.Fun {
	n := f.N()
	cur := make([]int, n) // original position -> current (-1 = dropped)
	at := make([]int, n)  // current position -> original
	for i := range cur {
		cur[i] = i
		at[i] = i
	}
	keepSet := make(map[int]bool, len(keep))
	for _, p := range keep {
		keepSet[p] = true
	}
	g := f
	width := n
	for width > len(keep) {
		dropOrig := -1
		for orig := 0; orig < n; orig++ {
			if cur[orig] >= 0 && !keepSet[orig] {
				dropOrig = orig
				break
			}
		}
		p := cur[dropOrig]
		top := width - 1
		if p != top {
			g = g.SwapVars(p, top)
			moved := at[top]
			at[p] = moved
			cur[moved] = p
		}
		g = g.ForgetTop()
		cur[dropOrig] = -1
		width--
	}
	order := make([]int, len(keep))
	for j, orig := range keep {
		order[j] = cur[orig]
	}
	return g.ProjectOnto(order) // 2^len(keep) rows: cheap
}

// groundness returns the Fun for "t is ground" over the current env.
func (e *env) groundness(t term.Term) *boolfn.Fun {
	n := e.desc.N()
	conj := boolfn.True(n)
	for _, v := range term.Vars(t) {
		conj = conj.And(boolfn.Var(n, e.pos[v]))
	}
	return conj
}

// iffVars returns x_v ↔ ground(t).
func (e *env) iffVars(v *term.Var, t term.Term) *boolfn.Fun {
	return boolfn.Var(e.desc.N(), e.pos[v]).Iff(e.groundness(t))
}

// clause evaluates one clause under the call description.
func (az *analyzer) clause(p *pred, cl *clause, call *boolfn.Fun) *boolfn.Fun {
	sentinels := make([]*term.Var, p.arity)
	e := &env{az: az, pos: map[*term.Var]int{}}
	e.desc = boolfn.True(0)
	for i := range sentinels {
		sentinels[i] = term.NewVar("A")
		e.add(sentinels[i])
	}
	// The call description ranges over the sentinel positions 0..arity-1.
	e.desc = call.Clone()

	// Head unification constraints.
	_, hargs, _ := term.FunctorArity(cl.head)
	for i, t := range hargs {
		e.ensure(t)
		e.desc = e.desc.And(e.iffVars(sentinels[i], t))
	}
	az.dropDead(cl, -1, e)

	for gi, g := range cl.body {
		az.goal(g, e)
		if e.desc.IsFalse() {
			return boolfn.False(p.arity)
		}
		az.dropDead(cl, gi, e)
	}
	positions := make([]int, p.arity)
	for i, s := range sentinels {
		positions[i] = e.pos[s]
	}
	return projectKeep(e.desc, positions)
}

// dropDead forgets every clause variable whose last use is at goal index
// gi (head constraints count as index -1).
func (az *analyzer) dropDead(cl *clause, gi int, e *env) {
	for _, v := range append([]*term.Var{}, e.vars...) {
		last, isClauseVar := cl.lastUse[v]
		if isClauseVar && last == gi {
			e.forget(v)
		}
	}
}

// goal evaluates one body goal, updating e.desc in place.
func (az *analyzer) goal(g term.Term, e *env) {
	f, args, ok := term.FunctorArity(term.Deref(g))
	if !ok {
		return // unknown goal shape: no constraint
	}
	switch {
	case f == "," && len(args) == 2:
		az.goal(args[0], e)
		az.goal(args[1], e)
		return
	case f == ";" && len(args) == 2:
		az.disjunction(args[0], args[1], e)
		return
	case f == "->" && len(args) == 2:
		az.goal(args[0], e)
		az.goal(args[1], e)
		return
	case (f == "\\+" || f == "not") && len(args) == 1:
		return
	case f == "!" && len(args) == 0, f == "true" && len(args) == 0:
		return
	case (f == "fail" || f == "false") && len(args) == 0:
		e.desc = boolfn.False(e.desc.N())
		return
	case f == "=" && len(args) == 2:
		e.ensure(g)
		e.desc = e.desc.And(az.absUnify(args[0], args[1], e))
		return
	case f == "call" && len(args) == 1:
		return
	}
	e.ensure(g)
	if fn, handled := az.builtinFun(f, args, e); handled {
		e.desc = e.desc.And(fn)
		return
	}

	// User predicate call.
	ind, _ := term.Indicator(g)
	callee, defined := az.preds[ind]
	if !defined {
		e.desc = boolfn.False(e.desc.N())
		return
	}
	k := len(args)
	// Plain variable arguments use their existing environment position
	// directly; only structured arguments (and repeated variables) need
	// a temporary boolean variable. This keeps the environment width at
	// "live variables plus structured arguments", which is what lets
	// wide clauses like kalah's alpha_beta fit.
	argPos := make([]int, k)
	var temps []*term.Var
	used := map[int]bool{}
	for i, argT := range args {
		if v, ok := term.Deref(argT).(*term.Var); ok {
			if p, known := e.pos[v]; known && !used[p] {
				argPos[i] = p
				used[p] = true
				continue
			}
		}
		tv := term.NewVar("T")
		e.add(tv)
		temps = append(temps, tv)
		e.desc = e.desc.And(e.iffVars(tv, argT))
		argPos[i] = e.pos[tv]
		used[e.pos[tv]] = true
	}
	callPat := projectKeep(e.desc, argPos)
	succ := az.call(callee, callPat)
	e.desc = e.desc.And(embedAt(succ, e.desc.N(), argPos))
	for i := len(temps) - 1; i >= 0; i-- {
		e.forget(temps[i])
	}
}

// disjunction evaluates (A ; B) (or an if-then-else) as the join of the
// branch descriptions. Both branches are pre-extended with every
// variable of the disjunction so their environments agree.
func (az *analyzer) disjunction(a, b term.Term, e *env) {
	if ite, ok := term.Deref(a).(*term.Compound); ok && ite.Functor == "->" && len(ite.Args) == 2 {
		a = term.Comp(",", ite.Args[0], ite.Args[1])
	}
	e.ensure(a)
	e.ensure(b)
	saved := e.desc.Clone()
	savedVars := append([]*term.Var{}, e.vars...)

	az.goal(a, e)
	left := e.desc
	leftVars := e.vars

	// Restore and evaluate the right branch.
	e.desc = saved
	e.vars = savedVars
	e.pos = map[*term.Var]int{}
	for i, v := range savedVars {
		e.pos[v] = i
	}
	az.goal(b, e)

	// Branches must end with the same environment (they only add and
	// then forget temporaries).
	if len(leftVars) != len(e.vars) {
		failf("internal: disjunction branches diverged")
	}
	e.desc = e.desc.Or(left)
}

// embedAt views f (k variables) as a function over n variables with f's
// variable i at position targets[i] (targets must be distinct); the
// remaining variables are unconstrained. Implemented with word-parallel
// extend and swaps.
func embedAt(f *boolfn.Fun, n int, targets []int) *boolfn.Fun {
	k := f.N()
	g := f.ExtendBy(n - k) // f's variable i initially at position i
	cur := make([]int, k)  // variable index -> current position
	at := make([]int, n)   // position -> variable index (-1: free)
	for i := range at {
		at[i] = -1
	}
	for i := 0; i < k; i++ {
		cur[i] = i
		at[i] = i
	}
	for i := 0; i < k; i++ {
		t := targets[i]
		if cur[i] == t {
			continue
		}
		other := at[t]
		g = g.SwapVars(cur[i], t)
		at[cur[i]] = other
		if other >= 0 {
			cur[other] = cur[i]
		}
		at[t] = i
		cur[i] = t
	}
	return g
}

// absUnify is the precise Prop abstraction of t1 = t2.
func (az *analyzer) absUnify(t1, t2 term.Term, e *env) *boolfn.Fun {
	n := e.desc.N()
	a, b := term.Deref(t1), term.Deref(t2)
	if _, ok := a.(*term.Var); !ok {
		if _, ok := b.(*term.Var); ok {
			a, b = b, a
		}
	}
	if av, ok := a.(*term.Var); ok {
		return e.iffVars(av, b)
	}
	switch at := a.(type) {
	case term.Atom:
		if bt, ok := b.(term.Atom); ok && at == bt {
			return boolfn.True(n)
		}
		return boolfn.False(n)
	case term.Int:
		if bt, ok := b.(term.Int); ok && at == bt {
			return boolfn.True(n)
		}
		return boolfn.False(n)
	case *term.Compound:
		bt, ok := b.(*term.Compound)
		if !ok || bt.Functor != at.Functor || len(bt.Args) != len(at.Args) {
			return boolfn.False(n)
		}
		out := boolfn.True(n)
		for i := range at.Args {
			out = out.And(az.absUnify(at.Args[i], bt.Args[i], e))
		}
		return out
	}
	return boolfn.False(n)
}

// builtinFun maps known builtins to Prop constraints; it must stay in
// semantic agreement with the declarative analyzer's abstraction table
// (the differential tests enforce this).
func (az *analyzer) builtinFun(f string, args []term.Term, e *env) (*boolfn.Fun, bool) {
	n := e.desc.N()
	groundAll := func(ts ...term.Term) *boolfn.Fun {
		out := boolfn.True(n)
		for _, t := range ts {
			out = out.And(e.groundness(t))
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
		gt := e.groundness(args[1])
		ga := e.groundness(args[2])
		return groundAll(args[0]).And(gt.Implies(ga)), true
	case "=../2":
		return e.groundness(args[0]).Iff(e.groundness(args[1])), true
	case "copy_term/2":
		return e.groundness(args[0]).Implies(e.groundness(args[1])), true
	case "length/2":
		return groundAll(args[1]), true
	case "sort/2", "msort/2", "reverse/2":
		return e.groundness(args[0]).Iff(e.groundness(args[1])), true
	case "var/1", "nonvar/1", "==/2", "\\==/2", "@</2", "@>/2",
		"@=</2", "@>=/2", "\\=/2",
		"write/1", "print/1", "writeln/1", "nl/0", "tab/1",
		"read/1", "assert/1", "asserta/1", "assertz/1", "retract/1",
		"findall/3", "bagof/3", "setof/3", "halt/0":
		return boolfn.True(n), true
	}
	return nil, false
}
