// Package analysis is the pipeline the tabled analyzers share: parse
// the object program, derive its abstract program, load that onto the
// tabled engine, solve the analysis calls, and collect the results
// from the tables — the paper's Preproc./Analysis/Collection columns.
// Run owns the steps every domain takes the same way (the timeline,
// the machine, entry resolution, the solve and its errors, the
// counters, provenance); a Domain supplies only what its abstraction
// decides. Prop groundness (internal/prop), demand strictness
// (internal/strict) and depth-k groundness (internal/depthk) are the
// three domains.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"xlp/internal/engine"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/term"
)

// Options configure one analysis run. Run reads every field but the
// last three, which only their domain reads.
type Options struct {
	// Mode selects dynamic loading (the paper's recommended assert-based
	// path) or closure compilation (§4's comparison point).
	Mode engine.LoadMode
	// Tables selects the engine's table representation: trie-indexed
	// (default) or the canonical-string maps kept for differential
	// testing (engine.TablesStringMap).
	Tables engine.TablesImpl
	// Limits are passed to the engine.
	Limits engine.Limits
	// Entry makes the run goal-directed: only the entry predicates (or
	// functions) are called, so evaluation explores exactly their
	// call-graph cone. Each entry is an indicator ("main/1"), a bare
	// name ("main", every defined arity) or a goal ("main(X)", its
	// indicator); one that selects nothing defined fails the run. When
	// empty, every defined predicate is analyzed with an open call.
	Entry []string
	// Slice, with Entry set, restricts transformation and loading to the
	// entries' call-graph cone (lint.Slice, lint.SliceFL). Evaluation
	// never leaves the cone, so results equal an unsliced goal-directed
	// run's; only preprocessing cost changes. Ignored without Entry.
	Slice bool
	// Ctx, when non-nil, cancels the run: the engine polls it during
	// evaluation and the run fails with engine.ErrCanceled or
	// engine.ErrDeadline once it is done.
	Ctx context.Context
	// Timeline, when non-nil, records the run's phases
	// (parse/transform/load/solve/collect) as contiguous spans. The
	// caller owns the timeline; the run closes its last phase.
	Timeline *obs.Timeline
	// Tracer, when non-nil, is installed on the engine for the solve
	// phase (event ring + per-predicate counters).
	Tracer obs.EngineTracer
	// Provenance enables the engine's justification recorder and keeps
	// the machine, with its live tables, on the Report, so recorded
	// answers can be explained after the run (Report.Explain).
	Provenance bool

	// NoSupplementary disables supplementary tabling of long clause
	// bodies (internal/supptab, §4.2); strict and depthk read it. Used
	// for the ablation benchmark; leave false for production runs.
	NoSupplementary bool
	// K is depthk's term-depth bound (default 2).
	K int
	// PureIff makes prop evaluate iff/N through generated Prolog clauses
	// instead of the native builtin (slower; used for validation).
	PureIff bool
}

// Report is what every run reports besides its domain's results, with
// the paper's cost breakdown.
type Report struct {
	PreprocTime    time.Duration // parse + transform + load ("Preproc." column)
	AnalysisTime   time.Duration // tabled evaluation ("Analysis")
	CollectionTime time.Duration // result extraction ("Collection")
	TableBytes     int           // "Table space (bytes)"
	TableNodes     int           // trie nodes backing the tables (0 under string maps)
	EngineStats    engine.Stats
	Timeline       *obs.Timeline // phase spans, when requested via Options

	// Machine is the engine that ran the analysis, kept — with its full
	// tables alive — only when Options.Provenance was set; nil
	// otherwise.
	Machine *engine.Machine
	// Preds maps the analyzed source indicators (p/n) to the abstract
	// predicates behind them, so Explain can find a source predicate's
	// abstract subgoal.
	Preds map[string]string
}

// Total returns the overall analysis time.
func (r *Report) Total() time.Duration {
	return r.PreprocTime + r.AnalysisTime + r.CollectionTime
}

// Explain builds the justification DAG for the recorded answers of a
// source predicate's abstract predicate, called open. pred is an
// indicator ("app/3"), a bare name (the smallest arity defined), or ""
// for the first predicate, in indicator order, that recorded any
// answer. The run must have had Options.Provenance set.
func (r *Report) Explain(pred string, maxNodes int) (*obs.Derivation, error) {
	if r.Machine == nil {
		return nil, fmt.Errorf("analysis ran without Options.Provenance")
	}
	explain := func(ind string) (*obs.Derivation, error) {
		return r.Machine.Explain(term.OpenCall(r.Preds[ind]), maxNodes)
	}
	inds := sortedKeys(r.Preds)
	if pred == "" {
		for _, ind := range inds {
			d, err := explain(ind)
			if err != nil || len(d.Roots) > 0 {
				return d, err
			}
		}
		return nil, fmt.Errorf("no predicate recorded any answer")
	}
	if _, ok := r.Preds[pred]; ok {
		return explain(pred)
	}
	best, bestArity := "", -1
	for _, ind := range inds {
		if name, arity := term.SplitIndicator(ind); name == pred && (bestArity < 0 || arity < bestArity) {
			best, bestArity = ind, arity
		}
	}
	if best == "" {
		return nil, fmt.Errorf("no predicate %s in the analyzed program", pred)
	}
	return explain(best)
}

// Entry is one resolved entry point.
type Entry struct {
	Ind  string    // the defined source indicator it selects
	Goal term.Term // the entry goal, when the entry was given as one
}

// Goal is one call Run solves, with the source indicator its errors
// name.
type Goal struct {
	Ind  string
	Call term.Term
}

// Domain is one abstract domain on the pipeline. A Domain value serves
// a single run and keeps its program between the steps; Run calls the
// steps, Parse to Collect, once each and in that order.
type Domain interface {
	// Name prefixes the run's errors ("prop", "strict", "depthk").
	Name() string
	// Parse reads the source program and returns the indicators it
	// defines, in definition order.
	Parse(src string) ([]string, error)
	// Transform derives the abstract program. keep, when non-nil, lists
	// the resolved entry indicators whose call-graph cone the program
	// is sliced to first. It returns the abstract indicator of each
	// analyzed source predicate.
	Transform(keep []string) (map[string]string, error)
	// Load consults the abstract program into m, which Run has
	// configured from the common options.
	Load(m *engine.Machine) error
	// Goals maps the entries to the calls to solve, in solve order: the
	// evaluation trajectory, and so the engine counters, follows it.
	// Without Options.Entry the entries are every defined predicate, in
	// indicator order.
	Goals(entries []Entry) []Goal
	// Collect reads the domain's results from the solved tables.
	Collect(m *engine.Machine)
}

// Run analyzes src in dom under opts.
func Run(src string, opts Options, dom Domain) (Report, error) {
	rep := Report{Timeline: opts.Timeline}
	// The report's durations are read off the timeline's phases, so
	// they and the timeline share one clock.
	tl := opts.Timeline
	if tl == nil {
		tl = obs.NewTimeline()
	}
	defer tl.End()

	tl.Start("parse")
	defined, err := dom.Parse(src)
	if err != nil {
		return rep, err
	}

	tl.Start("transform")
	entries, err := resolve(opts.Entry, defined)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", dom.Name(), err)
	}
	var keep []string
	if opts.Slice && len(opts.Entry) > 0 {
		keep = Indicators(entries)
	}
	preds, err := dom.Transform(keep)
	if err != nil {
		return rep, err
	}

	tl.Start("load")
	m := engine.New()
	m.Mode = opts.Mode
	m.Tables = opts.Tables
	m.Limits = opts.Limits
	m.Provenance = opts.Provenance
	m.SetContext(opts.Ctx)
	m.SetTracer(opts.Tracer)
	if err := dom.Load(m); err != nil {
		return rep, err
	}
	rep.Preds = preds
	if opts.Provenance {
		rep.Machine = m
	}

	tl.Start("solve")
	goals := dom.Goals(entries)
	calls := make([]term.Term, len(goals))
	for i, g := range goals {
		calls[i] = g.Call
	}
	if err := m.SolveAll(calls); err != nil {
		ind := "?"
		var ge *engine.GoalError
		if errors.As(err, &ge) {
			ind = goals[ge.Index].Ind
		}
		return rep, fmt.Errorf("%s: analyzing %s: %w", dom.Name(), ind, err)
	}

	tl.Start("collect")
	dom.Collect(m)
	rep.TableBytes = m.TableSpace()
	rep.TableNodes = m.TableNodes()
	rep.EngineStats = m.Stats()
	tl.End()

	ps := tl.Phases()
	ps = ps[len(ps)-5:] // this run's parse, transform, load, solve, collect
	rep.PreprocTime = ps[0].Dur + ps[1].Dur + ps[2].Dur
	rep.AnalysisTime = ps[3].Dur
	rep.CollectionTime = ps[4].Dur
	return rep, nil
}

// resolve reads the entry options against the defined indicators. With
// no entries it selects every defined predicate, in indicator order.
func resolve(entry []string, defined []string) ([]Entry, error) {
	if len(entry) == 0 {
		inds := append([]string(nil), defined...)
		sort.Strings(inds)
		out := make([]Entry, len(inds))
		for i, ind := range inds {
			out[i] = Entry{Ind: ind}
		}
		return out, nil
	}
	var out []Entry
	for _, e := range entry {
		inds, goal, err := lint.ResolveEntry(e, defined)
		if err != nil {
			return nil, err
		}
		for _, ind := range inds {
			out = append(out, Entry{Ind: ind, Goal: goal})
		}
	}
	return out, nil
}

// Indicators returns the distinct indicators the entries select, in
// order.
func Indicators(entries []Entry) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if !seen[e.Ind] {
			seen[e.Ind] = true
			out = append(out, e.Ind)
		}
	}
	sort.Strings(out)
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sorted returns a map's values in key order.
func Sorted[V any](m map[string]V) []V {
	out := make([]V, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}
