// Package lint is a static-analysis pass over parsed object programs
// (Prolog and FL) that runs before the engine ever sees them. It builds
// a predicate index and call graph, condenses it into strongly connected
// components (Tarjan) with a topological order, and derives a diagnostic
// set: undefined predicates (with call sites as line:column positions
// from the reader), predicates unreachable from declared entry points,
// singleton variables per clause, arity/name near-miss hints for
// undefined predicates, and recursive SCCs that are left-recursive but
// not tabled — the programs that diverge under plain SLD resolution.
//
// The call graph is load-bearing as well as advisory: Slice computes the
// reachability cone of a set of entry predicates, and the analyzers
// (prop, strict, depthk, gaia) use it to transform and solve only the
// cone of the queried predicate. Goal-directed pruning of this kind is
// where practical speedups live when preprocessing dominates analysis
// cost (the paper's §5 observation).
package lint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Severity grades a diagnostic.
type Severity int

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Diagnostic codes.
const (
	CodeSyntax      = "syntax"                // source does not parse
	CodeBadGoal     = "bad-goal"              // number or unbound variable as a body goal
	CodeUndefined   = "undefined-predicate"   // called but never defined (and not a builtin)
	CodeSingleton   = "singleton-variable"    // named variable occurring once in its clause
	CodeUnreachable = "unreachable-predicate" // not reachable from the entry points
	CodeUntabledRec = "untabled-recursion"    // left-recursive SCC with no ':- table'
	CodeUnboundVar  = "unbound-variable"      // FL: right-hand-side variable not bound by a pattern
)

// Diagnostic is one finding.
type Diagnostic struct {
	Severity Severity   `json:"severity"`
	Code     string     `json:"code"`
	Pos      prolog.Pos `json:"pos"`
	// Pred is the predicate (or function) indicator the finding concerns.
	Pred    string `json:"pred,omitempty"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Pos, d.Severity, d.Message, d.Code)
}

// Options configure a lint run.
type Options struct {
	// Entrypoints are predicate indicators ("main/0"), bare names
	// ("main", any arity), or goals in the analyzers' Entry syntax
	// ("main(X)") that root the reachability analysis. They are
	// combined with ':- entry(p/n).' directives found in the source.
	// With no entry points from either source, reachability diagnostics
	// are skipped (every predicate is presumed externally callable).
	Entrypoints []string
}

// Result is a full lint run.
type Result struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Graph is the program's call graph with its SCC condensation; nil
	// when the source failed to parse.
	Graph *Graph `json:"-"`
}

// Errors counts error-severity diagnostics.
func (r *Result) Errors() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is error severity.
func (r *Result) HasErrors() bool { return r.Errors() > 0 }

// Text renders the diagnostics one per line as "file:line:col: severity:
// message [code]".
func (r *Result) Text(file string) string {
	var sb strings.Builder
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&sb, "%s:%s\n", file, d)
	}
	return sb.String()
}

// Prolog lints a Prolog object program.
func Prolog(src string, opts Options) *Result {
	clauses, err := prolog.ParseProgramInfo(src)
	if err != nil {
		return syntaxResult(err)
	}
	g := BuildGraph(clauses)
	res := &Result{Graph: g}
	res.Diagnostics = append(res.Diagnostics, g.BadGoals...)
	res.add(undefinedDiagnostics(g))
	res.add(singletonDiagnostics(g))
	res.add(reachabilityDiagnostics(g, opts.Entrypoints))
	res.add(untabledRecursionDiagnostics(g))
	sortDiagnostics(res.Diagnostics)
	return res
}

func (r *Result) add(ds []Diagnostic) { r.Diagnostics = append(r.Diagnostics, ds...) }

// syntaxResult converts a parse error into a single error diagnostic,
// with its position when the reader reported one.
func syntaxResult(err error) *Result {
	d := Diagnostic{Severity: SevError, Code: CodeSyntax, Message: err.Error()}
	if se, ok := err.(*prolog.SyntaxError); ok {
		d.Pos = prolog.Pos{Line: se.Line, Col: se.Col}
		d.Message = se.Msg
	}
	return &Result{Diagnostics: []Diagnostic{d}}
}

// sortDiagnostics orders by position, then severity (errors first), then
// code, then message — a stable, deterministic report order.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// undefinedDiagnostics reports calls to predicates that are neither
// defined nor builtin, one diagnostic per callee at its first call site,
// with the remaining call sites and a near-miss hint in the message.
func undefinedDiagnostics(g *Graph) []Diagnostic {
	var out []Diagnostic
	for _, ind := range g.calledOrder {
		if _, defined := g.Preds[ind]; defined || Builtin(ind) {
			continue
		}
		sites := g.callSites[ind]
		msg := fmt.Sprintf("undefined predicate %s", ind)
		if hint := g.nearMiss(ind); hint != "" {
			msg += fmt.Sprintf("; did you mean %s?", hint)
		}
		if len(sites) > 1 {
			more := make([]string, 0, len(sites)-1)
			for _, p := range sites[1:] {
				more = append(more, p.String())
				if len(more) == 4 {
					more = append(more, fmt.Sprintf("... (%d more)", len(sites)-5))
					break
				}
			}
			msg += fmt.Sprintf(" (also called at %s)", strings.Join(more, ", "))
		}
		out = append(out, Diagnostic{
			Severity: SevError, Code: CodeUndefined,
			Pos: sites[0], Pred: ind, Message: msg,
		})
	}
	return out
}

// nearMiss suggests a defined predicate for an undefined indicator: the
// same name at a different arity, or a name one edit away at the same
// arity.
func (g *Graph) nearMiss(ind string) string {
	name, arity := term.SplitIndicator(ind)
	var sameName, closeName []string
	for _, dInd := range g.Order {
		dName, dArity := term.SplitIndicator(dInd)
		if dName == name && dArity != arity {
			sameName = append(sameName, dInd)
		} else if dArity == arity && editDistance1(dName, name) {
			closeName = append(closeName, dInd)
		}
	}
	if len(sameName) > 0 {
		sort.Strings(sameName)
		return sameName[0]
	}
	if len(closeName) > 0 {
		sort.Strings(closeName)
		return closeName[0]
	}
	return ""
}

// editDistance1 reports whether a and b differ by exactly one edit
// (substitution, insertion, or deletion).
func editDistance1(a, b string) bool {
	if a == b {
		return false
	}
	la, lb := len(a), len(b)
	if la > lb {
		a, b, la, lb = b, a, lb, la
	}
	if lb-la > 1 {
		return false
	}
	// Find first mismatch.
	i := 0
	for i < la && a[i] == b[i] {
		i++
	}
	if la == lb {
		return a[i+1:] == b[i+1:] // one substitution
	}
	return a[i:] == b[i+1:] // one insertion into a
}

// singletonDiagnostics reports named variables that occur exactly once
// in their clause (names starting with '_' opt out, as is conventional).
func singletonDiagnostics(g *Graph) []Diagnostic {
	var out []Diagnostic
	for _, s := range g.Singletons {
		out = append(out, Diagnostic{
			Severity: SevWarning, Code: CodeSingleton,
			Pos: s.Pos, Pred: s.Pred,
			Message: fmt.Sprintf("singleton variable %s in clause of %s", s.Name, s.Pred),
		})
	}
	return out
}

// reachabilityDiagnostics reports defined predicates not reachable from
// the entry points (explicit options plus ':- entry' directives).
func reachabilityDiagnostics(g *Graph, entrypoints []string) []Diagnostic {
	entries := append(append([]string{}, entrypoints...), g.Entries...)
	if len(entries) == 0 {
		return nil
	}
	reach := g.Reachable(entries)
	var out []Diagnostic
	for _, ind := range g.Order {
		if reach[ind] {
			continue
		}
		p := g.Preds[ind]
		out = append(out, Diagnostic{
			Severity: SevWarning, Code: CodeUnreachable,
			Pos: p.Pos, Pred: ind,
			Message: fmt.Sprintf("predicate %s is unreachable from entry points (%s)",
				ind, strings.Join(entries, ", ")),
		})
	}
	return out
}

// untabledRecursionDiagnostics reports SCCs that contain a cycle through
// leftmost body goals — the recursion shape that diverges under plain
// SLD resolution — when none of the SCC's predicates carry a ':- table'
// declaration.
func untabledRecursionDiagnostics(g *Graph) []Diagnostic {
	var out []Diagnostic
	for _, scc := range g.SCCs {
		if len(scc) == 1 && !g.selfLoop(scc[0], g.firstCallees) {
			continue // trivial component: no recursion at all through first goals
		}
		if !g.cyclicWithin(scc, g.firstCallees) {
			continue
		}
		tabled := false
		for _, ind := range scc {
			if g.Tabled[ind] {
				tabled = true
				break
			}
		}
		if tabled {
			continue
		}
		members := append([]string{}, scc...)
		sort.Strings(members)
		p := g.Preds[members[0]]
		noun := "predicate " + members[0] + " is left-recursive"
		if len(members) > 1 {
			noun = "predicates " + strings.Join(members, ", ") + " are mutually left-recursive"
		}
		out = append(out, Diagnostic{
			Severity: SevWarning, Code: CodeUntabledRec,
			Pos: p.Pos, Pred: members[0],
			Message: noun + " and not tabled; plain SLD resolution may diverge (add ':- table')",
		})
	}
	return out
}
