package engine

// Closure-compiled clause resolution (ModeClosure): the load mode beside
// the interpreter (LoadDynamic). Predicates are translated by
// internal/compile into Go closures — specialized head matchers plus
// body continuation chains — and this file owns the engine side of the
// contract: the clause loops that frame each activation with a trail
// checkpoint and the cut barrier, the shared runtime Env, and the
// per-predicate compile cache.
//
// The loops below mirror resolveClauses and runProducer's clause pass
// line for line (stats, tracer events, mark/undo, barrier handling), so
// the two modes are observationally equivalent up to resolution counts
// — the property the difftest modes_threeway oracle checks.

import (
	"sort"
	"time"

	"xlp/internal/compile"
	"xlp/internal/obs"
	"xlp/internal/term"
)

// syms returns the machine's symbol-intern memo, creating it on first
// use. The call/answer tries and the compiled-clause runtime share one
// memo per machine.
func (m *Machine) syms() *term.SymCache {
	if m.symCache == nil {
		m.symCache = &term.SymCache{}
	}
	return m.symCache
}

// closureEnv returns the machine's compiled-clause runtime environment,
// creating it on first use. It survives ResetTables: frames and the
// intern memo carry no query state.
func (m *Machine) closureEnv() *compile.Env {
	if m.cenv == nil {
		m.cenv = &compile.Env{
			Trail: &m.trail,
			Syms:  m.syms(),
			Call:  m.solveG,
			ThrowCut: func() {
				m.throwf("cut in the body of a tabled predicate")
			},
		}
	}
	return m.cenv
}

// closureCode is a predicate's compiled form together with the clause
// list it was compiled from. Compiled clauses index that list by their
// source position, so an asserta or retract during a running call —
// which replaces Pred.Clauses and renumbers it — cannot shift them.
type closureCode struct {
	*compile.Pred
	clauses []*Clause
}

// closurePred returns the compiled form of p, translating and caching
// it on first use. Compile time is charged to Stats and reported to the
// tracer per predicate; the cache survives ResetTables, so repeated
// analyses on a warm machine pay nothing.
func (m *Machine) closurePred(p *Pred) *closureCode {
	if p.closure != nil {
		return p.closure
	}
	start := time.Now()
	src := make([]compile.Source, len(p.Clauses))
	for i, cl := range p.Clauses {
		src[i] = compile.Source{Head: cl.Head, Body: cl.Body, Nth: i}
	}
	p.closure = &closureCode{
		Pred:    compile.Predicate(p.Indicator, parsePkey(p.Indicator).arity, src),
		clauses: p.Clauses,
	}
	ns := time.Since(start).Nanoseconds()
	m.stats.PredsCompiled++
	m.stats.CompileNanos += ns
	if m.tracer != nil {
		m.tracer.Emit(obs.EvCompile, p.Indicator, int(ns))
	}
	return p.closure
}

// compileAll translates every defined predicate, in sorted order so
// symbol interning is deterministic across runs.
func (m *Machine) compileAll() {
	for _, ind := range m.Predicates() {
		m.closurePred(m.preds[parsePkey(ind)])
	}
}

// ClausePlans compiles every defined predicate (caching as usual) and
// returns the per-predicate specialization plans sorted by indicator —
// the data behind `xlp compile -dump`.
func (m *Machine) ClausePlans() []*compile.PredPlan {
	inds := m.Predicates()
	plans := make([]*compile.PredPlan, 0, len(inds))
	for _, ind := range inds {
		plans = append(plans, m.closurePred(m.preds[parsePkey(ind)]).Plan())
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Indicator < plans[j].Indicator })
	return plans
}

// resolveClosure is resolveClauses for ModeClosure: SLD resolution over
// the predicate's compiled clauses. Each activation is framed by a
// trail checkpoint (the choice point), and the loop owns the clause's
// cut barrier exactly like the interpreted loop.
func (m *Machine) resolveClosure(p *Pred, goal term.Term, k func() bool) bool {
	code := m.closurePred(p)
	env := m.closureEnv()
	_, args, _ := term.FunctorArity(goal)
	cut := false
	for _, cl := range code.Select(env, args) {
		m.stats.Resolutions++
		if m.tracer != nil {
			m.tracer.Emit(obs.EvResolutions, p.Indicator, 1)
		}
		mark := m.trail.Mark()
		var stop bool
		if code.clauses[cl.Nth].hasCut {
			stop = m.cutScoped(func(k func() bool) bool { return cl.Run(env, args, &cut, k) }, k)
		} else {
			stop = cl.Run(env, args, &cut, k)
		}
		if stop {
			m.trail.Undo(mark)
			if cut {
				return false
			}
			return true
		}
		m.trail.Undo(mark)
		if cut {
			return false
		}
	}
	return false
}

// producePassClosure is the producer clause pass (see runProducer) over
// compiled clauses: every solution of a clause body records an answer
// and fails onward, and the nil cut barrier makes a cut in a tabled
// body an error, as in the interpreted pass.
func (m *Machine) producePassClosure(sg *subgoal) {
	code := m.closurePred(sg.pred)
	env := m.closureEnv()
	_, args, _ := term.FunctorArity(sg.goal)
	for _, cl := range code.Select(env, args) {
		m.stats.Resolutions++
		if m.tracer != nil {
			m.tracer.Emit(obs.EvResolutions, sg.pred.Indicator, 1)
		}
		mark := m.trail.Mark()
		// Compiled clauses carry their source index, so provenance maps
		// back to the same engine clause the interpreted pass would
		// record — the two backends produce identical justifications.
		src := code.clauses[cl.Nth]
		cl.Run(env, args, nil, func() bool {
			m.addAnswer(sg, sg.goal, src)
			return false
		})
		m.trail.Undo(mark)
	}
}
