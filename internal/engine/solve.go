package engine

import (
	"fmt"

	"xlp/internal/obs"
	"xlp/internal/term"
)

// solve proves goal with a fresh cut barrier (cuts inside goal are local
// to it, as in call/1).
func (m *Machine) solve(goal term.Term, k func() bool) bool {
	return m.solveG(goal, new(bool), k)
}

// solveG proves a single goal.
//
// Continuation protocol: k is invoked once per solution with bindings on
// the trail; it returns true to stop the search ("stop"). solveG returns
// the stop signal, and always restores the trail to its entry state
// before returning. Cut is implemented as a stop that additionally sets
// the owning barrier flag; the frame that created the barrier (the clause
// loop in resolveClauses, or an if-then-else condition) consumes the flag
// and converts the stop back into ordinary failure of the remaining
// alternatives.
func (m *Machine) solveG(goal term.Term, cut *bool, k func() bool) bool {
	m.depth++
	if m.depth > m.Limits.maxDepth() {
		m.throwErr(fmt.Errorf("%w (%d); looping non-tabled predicate?",
			ErrDepthLimit, m.Limits.maxDepth()))
	}
	if m.steps++; m.steps >= ctxCheckInterval {
		m.steps = 0
		m.checkCtx()
	}
	defer func() { m.depth-- }()

	goal = term.Deref(goal)
	switch g := goal.(type) {
	case *term.Var:
		m.throwf("unbound variable as goal")
	case term.Int:
		m.throwf("number %v as goal", g)
	}
	f, args, _ := term.FunctorArity(goal)
	switch {
	case f == "true" && len(args) == 0:
		return k()
	case (f == "fail" || f == "false") && len(args) == 0:
		return false
	case f == "!" && len(args) == 0:
		if cut == nil {
			m.throwf("cut in the body of a tabled predicate")
		}
		if stop := k(); stop {
			return true
		}
		*cut = true
		return true
	case f == "," && len(args) == 2:
		return m.solveG(args[0], cut, func() bool {
			return m.solveG(args[1], cut, k)
		})
	case f == ";" && len(args) == 2:
		if c, ok := term.Deref(args[0]).(*term.Compound); ok && c.Functor == "->" && len(c.Args) == 2 {
			return m.solveITE(c.Args[0], c.Args[1], args[1], cut, k)
		}
		if stop := m.solveG(args[0], cut, k); stop {
			return true
		}
		return m.solveG(args[1], cut, k)
	case f == "->" && len(args) == 2:
		return m.solveITE(args[0], args[1], term.Atom("fail"), cut, k)
	case (f == "\\+" || f == "not") && len(args) == 1:
		return m.solveNegation(args[0], k)
	case f == "call" && len(args) >= 1:
		g := term.Deref(args[0])
		if len(args) > 1 {
			name, base, ok := term.FunctorArity(g)
			if !ok {
				m.throwf("call/%d on non-callable %v", len(args), g)
			}
			all := append(append([]term.Term{}, base...), args[1:]...)
			g = term.NewCompound(name, all...)
		}
		if containsCut(g) {
			return m.cutScoped(func(k func() bool) bool { return m.solveG(g, new(bool), k) }, k)
		}
		return m.solveG(g, new(bool), k)
	}

	key := pkey{name: f, arity: len(args)}
	if bi, ok := m.builtins[key]; ok {
		m.stats.BuiltinCalls++
		return bi(m, args, k)
	}
	p, ok := m.preds[key]
	if !ok {
		m.throwf("undefined predicate %s in goal %v", key, goal)
	}
	if p.Tabled {
		return m.solveTabled(p, goal, k)
	}
	return m.resolveClauses(p, goal, k)
}

// solveITE implements (Cond -> Then ; Else) with the standard semantics:
// the condition is evaluated at most to its first solution; cuts inside
// the condition are local to it.
func (m *Machine) solveITE(cond, then, els term.Term, cut *bool, k func() bool) bool {
	condCut := false
	if condMet, stop := m.solveFirst(cond, &condCut, func() bool { return m.solveG(then, cut, k) }); condMet {
		return stop
	}
	return m.solveG(els, cut, k)
}

// solveFirst proves goal up to its first solution and runs k there,
// reporting whether goal had a solution and k's stop signal. goal is
// sealed (a late answer could not undo the commit); k runs unsealed.
func (m *Machine) solveFirst(goal term.Term, cut *bool, k func() bool) (found, stop bool) {
	outer := m.noSuspend
	m.noSuspend = true
	m.solveG(goal, cut, func() bool {
		found = true
		m.noSuspend = outer
		stop = k()
		return true // commit to the first solution
	})
	m.noSuspend = outer
	return found, stop
}

// solveNegation implements negation as failure. The engine does not
// check stratification; the analyses in this repository use definite
// programs only.
func (m *Machine) solveNegation(g term.Term, k func() bool) bool {
	found := false
	m.sealed(func() {
		var localCut bool
		m.solveG(g, &localCut, func() bool {
			found = true
			return true
		})
	})
	if found {
		return false
	}
	return k()
}

// resolveClauses is ordinary SLD resolution over the predicate's clauses
// (first-argument indexed in compiled mode). It owns a cut barrier: a
// cut in a clause body commits to that clause and to the bindings made
// so far in the body.
func (m *Machine) resolveClauses(p *Pred, goal term.Term, k func() bool) bool {
	if m.Mode == ModeClosure {
		return m.resolveClosure(p, goal, k)
	}
	cut := false
	for _, cl := range p.clausesFor(goal) {
		m.stats.Resolutions++
		if m.tracer != nil {
			m.tracer.Emit(obs.EvResolutions, p.Indicator, 1)
		}
		mark := m.trail.Mark()
		head, body := renameClause(cl)
		if term.Unify(goal, head, &m.trail) {
			var stop bool
			if cl.hasCut {
				stop = m.cutScoped(func(k func() bool) bool { return m.solveGoals(body, &cut, k) }, k)
			} else {
				stop = m.solveGoals(body, &cut, k)
			}
			if stop {
				m.trail.Undo(mark)
				if cut {
					return false
				}
				return true
			}
		}
		m.trail.Undo(mark)
		if cut {
			return false
		}
	}
	return false
}

// sealed runs f with suspension disabled: f proves a goal whose
// solutions its caller counts, collects, or tests for existence, so a
// consumer saved inside could never report its late answers.
func (m *Machine) sealed(f func()) {
	outer := m.noSuspend
	m.noSuspend = true
	f()
	m.noSuspend = outer
}

// cutScoped runs a body that holds a cut, sealed until a solution of
// the body reaches k. A consumer saved ahead of the cut would, when
// resumed, run the cut after its barrier's frame had returned; once the
// body has succeeded, the caller's continuation runs unsealed again.
func (m *Machine) cutScoped(body func(k func() bool) bool, k func() bool) bool {
	outer := m.noSuspend
	m.noSuspend = true
	stop := body(func() bool {
		m.noSuspend = outer
		stop := k()
		m.noSuspend = true
		return stop
	})
	m.noSuspend = outer
	return stop
}

// containsCut reports whether goal holds a cut that acts on its
// enclosing barrier (conservatively including if-then-else conditions).
func containsCut(goal term.Term) bool {
	switch g := term.Deref(goal).(type) {
	case term.Atom:
		return g == "!"
	case *term.Compound:
		if len(g.Args) == 2 && (g.Functor == "," || g.Functor == ";" || g.Functor == "->") {
			return containsCut(g.Args[0]) || containsCut(g.Args[1])
		}
	}
	return false
}

// solveGoals proves a conjunction given as a slice.
func (m *Machine) solveGoals(goals []term.Term, cut *bool, k func() bool) bool {
	if len(goals) == 0 {
		return k()
	}
	return m.solveG(goals[0], cut, func() bool {
		return m.solveGoals(goals[1:], cut, k)
	})
}

// renameClause instantiates a stored clause with fresh variables by
// filling its compiled skeleton.
func renameClause(cl *Clause) (head term.Term, body []term.Term) {
	vars := make([]term.Term, cl.nvars)
	for i := range vars {
		vars[i] = term.NewVar("_")
	}
	head = term.InstantiateSkeleton(cl.skelHead, vars)
	body = make([]term.Term, len(cl.skelBody))
	for i, g := range cl.skelBody {
		body[i] = term.InstantiateSkeleton(g, vars)
	}
	return head, body
}
