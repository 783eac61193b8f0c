package lint

import (
	"fmt"
	"sort"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Pred is one defined predicate in the call graph.
type Pred struct {
	Ind     string     `json:"indicator"`
	Name    string     `json:"name"`
	Arity   int        `json:"arity"`
	Pos     prolog.Pos `json:"pos"` // first clause
	Clauses int        `json:"clauses"`
	// Callees are the distinct indicators this predicate calls (defined
	// or not), sorted.
	Callees []string `json:"callees,omitempty"`
	// SCC is the index of the predicate's component in Graph.SCCs.
	SCC int `json:"scc"`
}

// Singleton is one singleton-variable occurrence.
type Singleton struct {
	Pred string
	Name string
	Pos  prolog.Pos
}

// Graph is the predicate index and call graph of one object program,
// with its SCC condensation.
type Graph struct {
	// Order lists defined predicate indicators in first-definition order.
	Order []string
	// Preds maps defined indicators to their node.
	Preds map[string]*Pred
	// Tabled marks indicators declared with ':- table'.
	Tabled map[string]bool
	// Entries lists indicators declared with ':- entry(p/n)' directives.
	Entries []string
	// SCCs is the Tarjan condensation in reverse topological order:
	// every component appears before the components that call it
	// (callees first). Within a component, indicators keep definition
	// order.
	SCCs [][]string
	// Singletons lists singleton-variable occurrences (for diagnostics).
	Singletons []Singleton
	// BadGoals are structural body errors found while walking clauses.
	BadGoals []Diagnostic

	// callSites maps every called indicator to its call positions in
	// source order; calledOrder is first-call order over those keys.
	callSites   map[string][]prolog.Pos
	calledOrder []string
	// firstCallees maps caller -> callees reachable as the leftmost body
	// goal of some clause (the SLD left-recursion edges).
	firstCallees map[string][]string
}

// TopoOrder returns the defined indicators in topological order of the
// condensation — callers before callees; predicates within one SCC are
// adjacent. This is the order a bottom-up scheduler would process in
// reverse.
func (g *Graph) TopoOrder() []string {
	out := make([]string, 0, len(g.Order))
	for i := len(g.SCCs) - 1; i >= 0; i-- {
		out = append(out, g.SCCs[i]...)
	}
	return out
}

// SCCOf returns the component index of a defined indicator (-1 when
// undefined).
func (g *Graph) SCCOf(ind string) int {
	if p, ok := g.Preds[ind]; ok {
		return p.SCC
	}
	return -1
}

// Recursive reports whether a defined indicator takes part in recursion:
// its component has more than one member, or it calls itself.
func (g *Graph) Recursive(ind string) bool {
	p, ok := g.Preds[ind]
	if !ok {
		return false
	}
	if len(g.SCCs[p.SCC]) > 1 {
		return true
	}
	return g.selfLoopCallees(ind, p.Callees)
}

func (g *Graph) selfLoopCallees(ind string, callees []string) bool {
	for _, c := range callees {
		if c == ind {
			return true
		}
	}
	return false
}

func (g *Graph) selfLoop(ind string, edges map[string][]string) bool {
	return g.selfLoopCallees(ind, edges[ind])
}

// cyclicWithin reports whether the subgraph of edges restricted to the
// members of one SCC contains a cycle.
func (g *Graph) cyclicWithin(scc []string, edges map[string][]string) bool {
	in := map[string]bool{}
	for _, ind := range scc {
		in[ind] = true
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(ind string) bool
	visit = func(ind string) bool {
		color[ind] = grey
		for _, c := range edges[ind] {
			if !in[c] {
				continue
			}
			switch color[c] {
			case grey:
				return true
			case white:
				if visit(c) {
					return true
				}
			}
		}
		color[ind] = black
		return false
	}
	for _, ind := range scc {
		if color[ind] == white && visit(ind) {
			return true
		}
	}
	return false
}

// Reachable returns the set of defined indicators reachable from the
// entry points, read by ResolveEntry: indicators ("main/0"), bare names
// ("main", matching every arity) or goals ("main(X)"). Unknown entries
// contribute nothing.
func (g *Graph) Reachable(entries []string) map[string]bool {
	var work []string
	seen := map[string]bool{}
	add := func(ind string) {
		if _, defined := g.Preds[ind]; defined && !seen[ind] {
			seen[ind] = true
			work = append(work, ind)
		}
	}
	for _, e := range entries {
		inds, _, _ := ResolveEntry(e, g.Order)
		for _, ind := range inds {
			add(ind)
		}
	}
	for len(work) > 0 {
		ind := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range g.Preds[ind].Callees {
			add(c)
		}
	}
	return seen
}

// BuildGraph builds the call graph of a parsed program.
func BuildGraph(clauses []prolog.ClauseInfo) *Graph {
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
	for i := range clauses {
		b.clause(&clauses[i])
	}
	b.finish()
	return b.g
}

// BuildGraphTerms builds the call graph of pre-parsed clause terms
// (positions default to zero; no singleton detection). This is the entry
// point for Slice, which operates on the analyzers' parsed programs.
func BuildGraphTerms(clauses []term.Term) *Graph {
	infos := make([]prolog.ClauseInfo, len(clauses))
	for i, c := range clauses {
		infos[i] = prolog.ClauseInfo{Term: c}
	}
	return BuildGraph(infos)
}

type builder struct {
	g       *Graph
	callees map[string]map[string]bool
	firsts  map[string]map[string]bool
	// curHead is the head of the clause being walked, for the structural
	// descent test on leftmost-goal recursion edges.
	curHead term.Term
}

func (b *builder) clause(c *prolog.ClauseInfo) {
	head, body := prolog.SplitClause(c.Term)
	if head == nil {
		b.directive(c, body)
		return
	}
	ind, ok := term.Indicator(head)
	if !ok {
		b.g.BadGoals = append(b.g.BadGoals, Diagnostic{
			Severity: SevError, Code: CodeBadGoal, Pos: c.Pos,
			Message: fmt.Sprintf("clause head %v is not callable", head),
		})
		return
	}
	p := b.g.Preds[ind]
	if p == nil {
		name, arity := term.SplitIndicator(ind)
		p = &Pred{Ind: ind, Name: name, Arity: arity, Pos: c.GoalPos(head)}
		b.g.Preds[ind] = p
		b.g.Order = append(b.g.Order, ind)
		b.callees[ind] = map[string]bool{}
		b.firsts[ind] = map[string]bool{}
	}
	p.Clauses++
	b.curHead = head
	b.walk(c, ind, body, true)
	b.singletons(c, ind)
}

// directive interprets ':- Goal' clauses: table and entry declarations
// are recorded; everything else is ignored (load-time behavior is the
// engine's business, not the linter's).
func (b *builder) directive(c *prolog.ClauseInfo, goal term.Term) {
	f, args, ok := term.FunctorArity(term.Deref(goal))
	if !ok {
		return
	}
	switch f {
	case "table":
		for _, ind := range indicatorList(args) {
			b.g.Tabled[ind] = true
		}
	case "entry":
		b.g.Entries = append(b.g.Entries, indicatorList(args)...)
	}
}

// indicatorList flattens directive arguments — comma lists of p/n terms
// or bare atoms — into indicator strings (bare atoms keep no arity and
// match every arity during reachability).
func indicatorList(args []term.Term) []string {
	var out []string
	var walk func(t term.Term)
	walk = func(t term.Term) {
		t = term.Deref(t)
		if cp, ok := t.(*term.Compound); ok {
			switch {
			case cp.Functor == "," && len(cp.Args) == 2:
				walk(cp.Args[0])
				walk(cp.Args[1])
				return
			case cp.Functor == "/" && len(cp.Args) == 2:
				name, ok1 := term.Deref(cp.Args[0]).(term.Atom)
				arity, ok2 := term.Deref(cp.Args[1]).(term.Int)
				if ok1 && ok2 {
					out = append(out, fmt.Sprintf("%s/%d", name, arity))
				}
				return
			}
		}
		if a, ok := t.(term.Atom); ok {
			out = append(out, string(a))
		}
	}
	for _, a := range args {
		walk(a)
	}
	return out
}

// walk records the calls of one body term. first tracks whether the
// position under scrutiny is still the leftmost goal of the clause (the
// SLD left-recursion edge).
func (b *builder) walk(c *prolog.ClauseInfo, caller string, t term.Term, first bool) {
	t = term.Deref(t)
	switch t := t.(type) {
	case *term.Var:
		// A variable goal is a meta-call the linter cannot resolve.
		return
	case term.Int:
		b.g.BadGoals = append(b.g.BadGoals, Diagnostic{
			Severity: SevError, Code: CodeBadGoal, Pos: c.Pos, Pred: caller,
			Message: fmt.Sprintf("number %v used as a goal in clause of %s", t, caller),
		})
		return
	}
	f, args, _ := term.FunctorArity(t)
	switch {
	case f == "," && len(args) == 2:
		b.walk(c, caller, args[0], first)
		b.walk(c, caller, args[1], false)
		return
	case f == ";" && len(args) == 2:
		b.walk(c, caller, args[0], first)
		b.walk(c, caller, args[1], first)
		return
	case f == "->" && len(args) == 2:
		b.walk(c, caller, args[0], first)
		b.walk(c, caller, args[1], false)
		return
	case (f == "\\+" || f == "not" || f == "once") && len(args) == 1:
		b.walk(c, caller, args[0], first)
		return
	case f == "call" && len(args) >= 1:
		b.metaCall(c, caller, args[0], len(args)-1, first)
		return
	case (f == "findall" || f == "bagof" || f == "setof" || f == "aggregate_all") && len(args) == 3:
		b.call(c, caller, t, false)
		b.walk(c, caller, stripCaret(args[1]), false)
		return
	case f == "forall" && len(args) == 2:
		b.call(c, caller, t, false)
		b.walk(c, caller, args[0], false)
		b.walk(c, caller, args[1], false)
		return
	case f == "!" || f == "true" || f == "fail" || f == "false":
		if len(args) == 0 {
			return
		}
	}
	b.call(c, caller, t, first)
}

// metaCall records call(G, Extra...) as a call to G's functor with the
// extra arguments appended, when G is sufficiently instantiated.
func (b *builder) metaCall(c *prolog.ClauseInfo, caller string, g term.Term, extra int, first bool) {
	g = term.Deref(g)
	name, args, ok := term.FunctorArity(g)
	if !ok {
		return // unbound or numeric: unresolvable meta-call
	}
	if extra == 0 {
		b.walk(c, caller, g, first)
		return
	}
	ind := fmt.Sprintf("%s/%d", name, len(args)+extra)
	b.record(caller, ind, c.GoalPos(g), first)
}

// stripCaret removes V^Goal wrappers (bagof/setof existential qualifiers).
func stripCaret(t term.Term) term.Term {
	for {
		cp, ok := term.Deref(t).(*term.Compound)
		if !ok || cp.Functor != "^" || len(cp.Args) != 2 {
			return t
		}
		t = cp.Args[1]
	}
}

// call records one plain predicate call. A leftmost goal only counts as
// an SLD left-recursion edge when it shows no structural descent from
// the clause head — recursion that strips structure off an argument
// (list walks, tree folds) terminates on finite input and is not
// flagged.
func (b *builder) call(c *prolog.ClauseInfo, caller string, goal term.Term, first bool) {
	ind, ok := term.Indicator(goal)
	if !ok {
		return
	}
	b.record(caller, ind, c.GoalPos(goal), first && !descends(goal, b.curHead))
}

// descends reports whether some argument of the goal is a proper
// subterm of the head argument at the same position — the structural
// descent that makes leftmost-goal recursion terminate.
func descends(goal, head term.Term) bool {
	_, gArgs, ok := term.FunctorArity(term.Deref(goal))
	if !ok {
		return false
	}
	_, hArgs, ok := term.FunctorArity(term.Deref(head))
	if !ok {
		return false
	}
	n := len(gArgs)
	if len(hArgs) < n {
		n = len(hArgs)
	}
	for i := 0; i < n; i++ {
		if properSubterm(gArgs[i], hArgs[i]) {
			return true
		}
	}
	return false
}

// properSubterm reports whether sub occurs strictly inside super.
func properSubterm(sub, super term.Term) bool {
	cp, ok := term.Deref(super).(*term.Compound)
	if !ok {
		return false
	}
	for _, a := range cp.Args {
		if term.Equal(sub, a) || properSubterm(sub, a) {
			return true
		}
	}
	return false
}

func (b *builder) record(caller, callee string, pos prolog.Pos, first bool) {
	if _, seen := b.g.callSites[callee]; !seen {
		b.g.calledOrder = append(b.g.calledOrder, callee)
	}
	b.g.callSites[callee] = append(b.g.callSites[callee], pos)
	b.callees[caller][callee] = true
	if first {
		b.firsts[caller][callee] = true
	}
}

// singletons records named variables occurring exactly once in a clause.
func (b *builder) singletons(c *prolog.ClauseInfo, ind string) {
	var found []Singleton
	for v, occs := range c.VarOccs {
		if len(occs) != 1 || v.Name == "" || v.Name[0] == '_' {
			continue
		}
		found = append(found, Singleton{Pred: ind, Name: v.Name, Pos: occs[0]})
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].Pos.Line != found[j].Pos.Line {
			return found[i].Pos.Line < found[j].Pos.Line
		}
		if found[i].Pos.Col != found[j].Pos.Col {
			return found[i].Pos.Col < found[j].Pos.Col
		}
		return found[i].Name < found[j].Name
	})
	b.g.Singletons = append(b.g.Singletons, found...)
}

// finish freezes per-predicate callee lists and runs Tarjan's algorithm.
func (b *builder) finish() {
	g := b.g
	for ind, set := range b.callees {
		p := g.Preds[ind]
		p.Callees = make([]string, 0, len(set))
		for c := range set {
			p.Callees = append(p.Callees, c)
		}
		sort.Strings(p.Callees)
		firsts := make([]string, 0, len(b.firsts[ind]))
		for c := range b.firsts[ind] {
			firsts = append(firsts, c)
		}
		sort.Strings(firsts)
		g.firstCallees[ind] = firsts
	}
	g.tarjan()
}

// tarjan computes the SCC condensation. Components are emitted callees
// first (reverse topological order of the condensation).
func (g *Graph) tarjan() {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.Preds[v].Callees {
			if _, defined := g.Preds[w]; !defined {
				continue
			}
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			// Keep definition order within the component.
			sort.Slice(scc, func(i, j int) bool { return index[scc[i]] < index[scc[j]] })
			id := len(g.SCCs)
			for _, w := range scc {
				g.Preds[w].SCC = id
			}
			g.SCCs = append(g.SCCs, scc)
		}
	}
	for _, v := range g.Order {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
}
