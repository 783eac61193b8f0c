// Package xlp is a tabled logic programming system and program-analysis
// toolkit in Go — a reproduction of Dawson, Ramakrishnan & Warren,
// "Practical Program Analysis Using General Purpose Logic Programming
// Systems — A Case Study" (PLDI 1996).
//
// The package exposes four things:
//
//   - a tabled logic-programming engine in the spirit of XSB (variant
//     tabling, SLD resolution, dynamic and compiled loading): NewMachine;
//   - groundness analysis of logic programs over the Prop domain
//     (the paper's §3.1): AnalyzeGroundness, plus the special-purpose
//     and BDD-based comparators AnalyzeGroundnessGAIA and
//     AnalyzeGroundnessBDD;
//   - strictness analysis of lazy functional programs by demand
//     propagation (§3.2): AnalyzeStrictness;
//   - groundness analysis with term-depth abstraction (§5):
//     AnalyzeDepthK;
//   - a static linter over the object programs themselves (call graph,
//     SCC condensation, undefined/unreachable predicates, singleton
//     variables, untabled left recursion): Lint and LintFL. Its call
//     graph also drives reachability slicing — set Slice with Entry in
//     the analysis options to analyze only the queried cone.
//
// A bottom-up deductive engine with Magic sets (the §7 comparison
// substrate) is available as BottomUp and MagicQuery.
//
// All analysis functions take program source text; logic programs use
// Edinburgh Prolog syntax, functional programs the equation syntax of
// internal/fl (Prolog term notation: `ap(cons(X,Xs),Ys) = cons(X,
// ap(Xs,Ys)).`).
package xlp

import (
	"context"

	"xlp/internal/analysis"
	"xlp/internal/bddprop"
	"xlp/internal/bottomup"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// Engine types.
type (
	// Machine is the tabled logic-programming engine.
	Machine = engine.Machine
	// LoadMode selects dynamic (assert-style) or closure-compiled
	// clause loading.
	LoadMode = engine.LoadMode
	// Limits bound engine resources.
	Limits = engine.Limits
	// Term is the term representation shared across the system.
	Term = term.Term
)

// Load modes.
const (
	LoadDynamic = engine.LoadDynamic
	ModeClosure = engine.ModeClosure
)

// NewMachine returns an empty tabled engine. Consult Prolog text with
// m.Consult, mark predicates tabled with m.Table (or ':- table p/n.'
// directives in the source), and run queries with m.Query.
func NewMachine() *Machine { return engine.New() }

// Typed evaluation errors. Every analysis and query error caused by a
// resource limit or cancellation wraps one of these; select with
// errors.Is.
var (
	ErrDepthLimit   = engine.ErrDepthLimit
	ErrAnswerLimit  = engine.ErrAnswerLimit
	ErrSubgoalLimit = engine.ErrSubgoalLimit
	ErrNonResumable = engine.ErrNonResumable
	ErrCanceled     = engine.ErrCanceled
	ErrDeadline     = engine.ErrDeadline
)

// Groundness analysis (Prop domain, §3.1).
//
// The three tabled analyses run on one pipeline (internal/analysis):
// GroundnessOptions, StrictnessOptions and DepthKOptions are one type,
// and each analysis embeds the same report of phase times, table space
// and engine counters, with Total and Explain.
type (
	// GroundnessOptions configure AnalyzeGroundness.
	GroundnessOptions = prop.Options
	// GroundnessAnalysis is the result of AnalyzeGroundness, with the
	// paper's phase breakdown (Table 1 columns).
	GroundnessAnalysis = prop.Analysis
	// GroundnessResult is the per-predicate result.
	GroundnessResult = prop.PredResult
)

// AnalyzeGroundness runs Prop-domain groundness analysis of a Prolog
// program on the tabled engine.
func AnalyzeGroundness(src string, opts GroundnessOptions) (*GroundnessAnalysis, error) {
	return prop.Analyze(src, opts)
}

// Sorted returns an analysis' per-predicate (or per-function) results
// in indicator order: Sorted(a.Results).
func Sorted[V any](results map[string]V) []V { return analysis.Sorted(results) }

// AnalyzeGroundnessGAIA runs the special-purpose abstract interpreter
// (the paper's Table 2 comparator). Results are identical to
// AnalyzeGroundness; only the implementation differs.
func AnalyzeGroundnessGAIA(src string) (*gaia.Analysis, error) {
	return gaia.Analyze(src)
}

// AnalyzeGroundnessGAIACtx is AnalyzeGroundnessGAIA under a context.
func AnalyzeGroundnessGAIACtx(ctx context.Context, src string) (*gaia.Analysis, error) {
	return gaia.AnalyzeCtx(ctx, src)
}

// AnalyzeGroundnessBDD runs the BDD-based bottom-up analyzer (the §4
// representation comparison).
func AnalyzeGroundnessBDD(src string) (*bddprop.Analysis, error) {
	return bddprop.Analyze(src)
}

// AnalyzeGroundnessBDDCtx is AnalyzeGroundnessBDD under a context.
func AnalyzeGroundnessBDDCtx(ctx context.Context, src string) (*bddprop.Analysis, error) {
	return bddprop.AnalyzeCtx(ctx, src)
}

// Strictness analysis (demand propagation, §3.2).
type (
	// StrictnessOptions configure AnalyzeStrictness.
	StrictnessOptions = strict.Options
	// StrictnessAnalysis is the result (Table 3 columns).
	StrictnessAnalysis = strict.Analysis
	// StrictnessResult is the per-function result.
	StrictnessResult = strict.FuncResult
	// Demand is a point of the demand lattice n < d < e.
	Demand = strict.Demand
)

// Demand lattice points.
const (
	DemandNone = strict.N
	DemandHead = strict.D
	DemandFull = strict.E
)

// AnalyzeStrictness runs demand-propagation strictness analysis of a
// functional program on the tabled engine.
func AnalyzeStrictness(src string, opts StrictnessOptions) (*StrictnessAnalysis, error) {
	return strict.Analyze(src, opts)
}

// Depth-k groundness analysis (§5).
type (
	// DepthKOptions configure AnalyzeDepthK.
	DepthKOptions = depthk.Options
	// DepthKAnalysis is the result (Table 4 columns).
	DepthKAnalysis = depthk.Analysis
)

// AnalyzeDepthK runs groundness analysis with term-depth abstraction.
func AnalyzeDepthK(src string, opts DepthKOptions) (*DepthKAnalysis, error) {
	return depthk.Analyze(src, opts)
}

// Object-program linting (static, no evaluation).
type (
	// LintOptions configure Lint and LintFL.
	LintOptions = lint.Options
	// LintResult is a lint run: sorted diagnostics plus the program's
	// call graph with its SCC condensation.
	LintResult = lint.Result
	// LintDiagnostic is one finding with severity, code, and position.
	LintDiagnostic = lint.Diagnostic
	// CallGraph is the predicate-level call graph a lint run builds.
	CallGraph = lint.Graph
)

// Diagnostic severities.
const (
	LintWarning = lint.SevWarning
	LintError   = lint.SevError
)

// Lint statically checks a Prolog object program: undefined predicates
// (with call sites and near-miss hints), singleton variables,
// predicates unreachable from the entry points, and recursive
// predicates that diverge under SLD unless tabled.
func Lint(src string, opts LintOptions) *LintResult {
	return lint.Prolog(src, opts)
}

// LintFL statically checks a functional program in the fl equation
// syntax: unbound right-hand-side variables, singleton pattern
// variables, and functions unreachable from the entry points.
func LintFL(src string, opts LintOptions) *LintResult {
	return lint.FL(src, opts)
}

// Bottom-up evaluation (the §7 comparison substrate).
type (
	// BottomUpSystem is the semi-naive deductive engine.
	BottomUpSystem = bottomup.System
)

// BottomUp returns an empty bottom-up system.
func BottomUp() *BottomUpSystem { return bottomup.New() }

// Observability. A Timeline threads through analysis options to record
// the parse/transform/load/solve/collect phase breakdown; a Trace
// installed as the Tracer option records engine events (subgoal created,
// answer added/duplicate, producer runs, completion) into a bounded ring
// with per-predicate counters, exportable as JSONL or Chrome
// trace_event. Tracing is opt-in: a nil tracer costs one predictable
// branch per hook site and allocates nothing.
type (
	// Timeline records contiguous analysis phases; nil is a valid no-op.
	Timeline = obs.Timeline
	// Trace is a bounded engine event ring with per-predicate counters.
	Trace = obs.Trace
	// EngineTracer receives engine evaluation events.
	EngineTracer = obs.EngineTracer
	// TraceEvent is one recorded engine event.
	TraceEvent = obs.Event
	// PredCounters are per-predicate table totals ("top tables").
	PredCounters = obs.PredCounters
	// BuildInfo identifies the running binary.
	BuildInfo = obs.Info
)

// NewTimeline returns an empty phase timeline.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// NewTrace returns an engine event trace with the given ring capacity
// (0 uses the default of obs.DefaultTraceCap events).
func NewTrace(capacity int) *Trace { return obs.NewTrace(capacity) }

// Build returns the binary's build information; a non-empty override
// (an -ldflags -X version stamp) wins over the module version.
func Build(override string) BuildInfo { return obs.Build(override) }

// Answer provenance. With Provenance enabled on the analyzer options
// (or Machine.Provenance set before solving), the engine records a
// justification for every distinct tabled answer: the clause that first
// produced it and the tabled premise answers that derivation consumed.
// Derivation is the renderable DAG built from those records — the
// `xlp why` CLI and the server's POST /v1/explain return it as text,
// JSON, or Graphviz DOT.
type (
	// AnswerRef identifies one tabled answer by table coordinates
	// (subgoal creation index, answer insertion index).
	AnswerRef = engine.AnswerRef
	// Just is the recorded justification of one tabled answer.
	Just = engine.Just
	// Derivation is a justification DAG over recorded answers, with
	// WriteText, WriteJSON, and WriteDOT renderers.
	Derivation = obs.Derivation
	// DerivNode is one answer in a Derivation.
	DerivNode = obs.DerivNode
)
