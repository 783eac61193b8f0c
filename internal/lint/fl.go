package lint

import (
	"fmt"

	"xlp/internal/fl"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// FL lints a functional (FL) object program: equation structure is
// validated by the fl frontend, then the function call graph is built
// (applications of defined functions on right-hand sides), with
// diagnostics for right-hand-side variables not bound by any pattern
// (an error — the equation has no value for them), singleton pattern
// variables, and functions unreachable from the entry points. Undefined
// function detection is impossible in FL — an unknown application is a
// constructor by definition — so the unbound-variable check and the
// reachability slice carry the weight instead.
func FL(src string, opts Options) *Result {
	prog, err := fl.Parse(src)
	if err != nil {
		return syntaxResult(err)
	}
	infos, err := prolog.ParseProgramInfo(src)
	if err != nil {
		return syntaxResult(err) // unreachable: fl.Parse parsed the same text
	}
	g, unbound := buildFLGraph(prog, infos)
	res := &Result{Graph: g}
	res.add(unbound)
	res.add(singletonDiagnostics(g))
	res.add(reachabilityDiagnostics(g, opts.Entrypoints))
	sortDiagnostics(res.Diagnostics)
	return res
}

// buildFLGraph builds the function call graph and the variable
// diagnostics of a parsed FL program.
func buildFLGraph(prog *fl.Program, infos []prolog.ClauseInfo) (*Graph, []Diagnostic) {
	b := &builder{
		g: &Graph{
			Preds:        map[string]*Pred{},
			Tabled:       map[string]bool{},
			callSites:    map[string][]prolog.Pos{},
			firstCallees: map[string][]string{},
		},
		callees: map[string]map[string]bool{},
		firsts:  map[string]map[string]bool{},
	}
	var unbound []Diagnostic
	for i := range infos {
		c := &infos[i]
		eq, ok := term.Deref(c.Term).(*term.Compound)
		if !ok || eq.Functor != "=" || len(eq.Args) != 2 {
			continue // fl.Parse accepted it, so this cannot happen
		}
		lhs, rhs := term.Deref(eq.Args[0]), eq.Args[1]
		ind, ok := term.Indicator(lhs)
		if !ok || !prog.IsFunc(ind) {
			continue
		}
		p := b.g.Preds[ind]
		if p == nil {
			name, arity := term.SplitIndicator(ind)
			p = &Pred{Ind: ind, Name: name, Arity: arity, Pos: c.GoalPos(lhs)}
			b.g.Preds[ind] = p
			b.g.Order = append(b.g.Order, ind)
			b.callees[ind] = map[string]bool{}
			b.firsts[ind] = map[string]bool{}
		}
		p.Clauses++
		b.flExpr(c, prog, ind, rhs)

		patVars := map[*term.Var]bool{}
		_, patArgs, _ := term.FunctorArity(lhs)
		for _, pat := range patArgs {
			for _, v := range term.Vars(pat) {
				patVars[v] = true
			}
		}
		unboundVars := map[*term.Var]bool{}
		for _, v := range term.Vars(rhs) {
			if patVars[v] || unboundVars[v] {
				continue
			}
			unboundVars[v] = true
			pos := c.Pos
			if occs := c.VarOccs[v]; len(occs) > 0 {
				pos = occs[0]
			}
			unbound = append(unbound, Diagnostic{
				Severity: SevError, Code: CodeUnboundVar,
				Pos: pos, Pred: ind,
				Message: fmt.Sprintf("variable %s on the right-hand side of %s is not bound by any pattern", v.Name, ind),
			})
		}
		for v, occs := range c.VarOccs {
			if len(occs) != 1 || v.Name == "" || v.Name[0] == '_' || unboundVars[v] {
				continue
			}
			b.g.Singletons = append(b.g.Singletons, Singleton{Pred: ind, Name: v.Name, Pos: occs[0]})
		}
	}
	sortSingletons(b.g.Singletons)
	b.finish()
	return b.g, unbound
}

// flExpr records applications of defined functions in an expression.
func (b *builder) flExpr(c *prolog.ClauseInfo, prog *fl.Program, caller string, e term.Term) {
	switch e := term.Deref(e).(type) {
	case term.Atom:
		ind := string(e) + "/0"
		if prog.IsFunc(ind) {
			b.record(caller, ind, c.Pos, false)
		}
	case *term.Compound:
		ind := fmt.Sprintf("%s/%d", e.Functor, len(e.Args))
		if prog.IsFunc(ind) {
			b.record(caller, ind, c.GoalPos(e), false)
		}
		for _, a := range e.Args {
			b.flExpr(c, prog, caller, a)
		}
	}
}

func sortSingletons(ss []Singleton) {
	// Singletons are appended per clause in map order; restore source order.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && lessPos(ss[j].Pos, ss[j-1].Pos); j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func lessPos(a, b prolog.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// SliceFL returns the sub-program of functions reachable from the entry
// points, read by ResolveEntry ("f/n", bare "f" or a goal "f(X)").
// Constructors are kept whole — they cost nothing and keep the
// strictness transform's pattern-match predicates identical on the
// cone. With no entries the program is returned unchanged.
func SliceFL(p *fl.Program, entries []string) *fl.Program {
	if len(entries) == 0 {
		return p
	}
	// Edges: defined-function applications on equation right-hand sides.
	edges := map[string][]string{}
	for ind, f := range p.Funcs {
		seen := map[string]bool{}
		var walk func(e term.Term)
		walk = func(e term.Term) {
			switch e := term.Deref(e).(type) {
			case term.Atom:
				if cInd := string(e) + "/0"; p.IsFunc(cInd) {
					seen[cInd] = true
				}
			case *term.Compound:
				if cInd := fmt.Sprintf("%s/%d", e.Functor, len(e.Args)); p.IsFunc(cInd) {
					seen[cInd] = true
				}
				for _, a := range e.Args {
					walk(a)
				}
			}
		}
		for _, eq := range f.Equations {
			walk(eq.Rhs)
		}
		for c := range seen {
			edges[ind] = append(edges[ind], c)
		}
	}
	reach := map[string]bool{}
	var work []string
	add := func(ind string) {
		if p.IsFunc(ind) && !reach[ind] {
			reach[ind] = true
			work = append(work, ind)
		}
	}
	for _, e := range entries {
		inds, _, _ := ResolveEntry(e, p.Order)
		for _, ind := range inds {
			add(ind)
		}
	}
	for len(work) > 0 {
		ind := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range edges[ind] {
			add(c)
		}
	}
	out := &fl.Program{
		Funcs:        map[string]*fl.Func{},
		Constructors: p.Constructors,
		Lines:        p.Lines,
	}
	for _, ind := range p.Order {
		if reach[ind] {
			out.Funcs[ind] = p.Funcs[ind]
			out.Order = append(out.Order, ind)
		}
	}
	return out
}
