package lint

import (
	"fmt"
	"slices"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

// ResolveEntry reads one entry point by the rule the analyzers, the
// slicers and reachability share: an indicator ("main/1") selects that
// predicate, a bare name ("main") every defined arity of it, and a
// goal ("main(X)") its own indicator. An entry equal to a defined
// indicator selects it without being parsed, so indicators as the
// tools print them ("F/1", "++/2") and entries already resolved read
// back as themselves. It returns the defined indicators the entry
// selects, in the order of defined, and the goal when the entry was
// one. An entry that does not parse, or selects nothing defined, is an
// error.
func ResolveEntry(e string, defined []string) ([]string, term.Term, error) {
	if slices.Contains(defined, e) {
		return []string{e}, nil, nil
	}
	t, _, err := prolog.ParseTerm(e)
	if err != nil {
		return nil, nil, fmt.Errorf("bad entry %q: %v", e, err)
	}
	var name, want string // a bare name, or the one indicator selected
	var goal term.Term
	switch t := t.(type) {
	case term.Atom:
		name = string(t)
	case *term.Compound:
		if n, ok := t.Args[0].(term.Atom); ok && t.Functor == "/" && len(t.Args) == 2 {
			if arity, ok := t.Args[1].(term.Int); ok && arity >= 0 {
				want = fmt.Sprintf("%s/%d", string(n), arity)
				break
			}
		}
		want, _ = term.Indicator(t)
		goal = t
	}
	var inds []string
	for _, ind := range defined {
		if n, _ := term.SplitIndicator(ind); ind == want || want == "" && n == name {
			inds = append(inds, ind)
		}
	}
	if len(inds) == 0 {
		return nil, nil, fmt.Errorf("entry %q matches nothing the program defines", e)
	}
	return inds, goal, nil
}

// Predicates returns the defined predicate indicators of pre-parsed
// clauses in first-definition order, with directives skipped.
func Predicates(clauses []term.Term) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range clauses {
		head, _ := prolog.SplitClause(c)
		if head == nil {
			continue
		}
		ind, ok := term.Indicator(head)
		if !ok || seen[ind] {
			continue
		}
		seen[ind] = true
		out = append(out, ind)
	}
	return out
}

// Slice returns the clauses of the predicates reachable from the entry
// points (read by ResolveEntry) over the call graph — the reachability
// cone of the queried predicates. Directives are preserved so table
// declarations survive slicing; clause order is preserved. With no
// entries the program is returned unchanged (there is nothing to slice
// against).
func Slice(clauses []term.Term, entries []string) []term.Term {
	if len(entries) == 0 {
		return clauses
	}
	g := BuildGraphTerms(clauses)
	reach := g.Reachable(entries)
	out := make([]term.Term, 0, len(clauses))
	for _, c := range clauses {
		head, _ := prolog.SplitClause(c)
		if head == nil {
			out = append(out, c) // directive
			continue
		}
		ind, ok := term.Indicator(head)
		if !ok || reach[ind] {
			out = append(out, c)
		}
	}
	return out
}

// SliceIndicators returns the reachable defined indicators themselves,
// in definition order — what Slice keeps, without rebuilding clauses.
func SliceIndicators(clauses []term.Term, entries []string) []string {
	g := BuildGraphTerms(clauses)
	reach := g.Reachable(entries)
	var out []string
	for _, ind := range g.Order {
		if reach[ind] {
			out = append(out, ind)
		}
	}
	return out
}
