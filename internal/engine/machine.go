// Package engine implements a tabled logic-programming engine in the
// spirit of the XSB system used by the paper: SLD resolution for
// non-tabled predicates, variant-based tabling for tabled predicates,
// dynamic clause loading ("assert") and a compiled mode that translates
// clauses into Go closures (closure.go).
//
// Completeness. For tabled predicates the engine computes the full set of
// answers of the minimal model restricted to the call, terminating
// whenever the set of reachable subgoals and answers is finite (as in all
// finite-domain analyses of the paper). As in XSB, a tabled call that
// reaches an incomplete table suspends: its continuation and bindings
// are saved as a consumer record and resumed once per later answer, and
// each SCC of subgoals completes when no consumer is behind (see
// table.go). Every subgoal's clauses are resolved exactly once.
//
// The Machine is not safe for concurrent use.
package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"xlp/internal/compile"
	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// LoadMode selects how consulted clauses are prepared, mirroring the
// paper's §4 preprocessing tradeoff.
type LoadMode int

const (
	// LoadDynamic stores clauses as parsed (XSB's assert + call/1 path):
	// minimal preprocessing, linear clause scan at call time.
	LoadDynamic LoadMode = iota
	// ModeClosure additionally translates every predicate into Go
	// closures (internal/compile): head unification is specialized per
	// clause, clause selection dispatches through an index keyed by
	// interned symbols, and bodies become continuation chains. More
	// preprocessing and faster resolution — the compiled side of the
	// paper's §4 tradeoff. Tabling semantics are unchanged: calls still
	// go through the call/answer tables, only the SLD resolution inside
	// a subgoal runs compiled.
	ModeClosure
)

// Limits bound engine resources so runaway programs fail cleanly.
type Limits struct {
	// MaxDepth bounds non-tabled resolution depth (0 = default 1e6).
	MaxDepth int
	// MaxAnswers bounds the total number of tabled answers (0 = default 10e6).
	MaxAnswers int
	// MaxSubgoals bounds the number of distinct tabled calls (0 = default 1e6).
	MaxSubgoals int
	// MaxProvNodes bounds provenance recording (Machine.Provenance): the
	// total of justification records plus premise refs (0 = default 1e6).
	// Past the budget answers still get a record of their producing
	// clause, but premises are dropped and the record marked Truncated.
	MaxProvNodes int
}

func (l Limits) maxDepth() int {
	if l.MaxDepth <= 0 {
		return 1_000_000
	}
	return l.MaxDepth
}

func (l Limits) maxAnswers() int {
	if l.MaxAnswers <= 0 {
		return 10_000_000
	}
	return l.MaxAnswers
}

func (l Limits) maxSubgoals() int {
	if l.MaxSubgoals <= 0 {
		return 1_000_000
	}
	return l.MaxSubgoals
}

func (l Limits) maxProvNodes() int {
	if l.MaxProvNodes <= 0 {
		return 1_000_000
	}
	return l.MaxProvNodes
}

// Stats accumulates evaluation counters.
type Stats struct {
	Resolutions    int // clause head unification attempts
	BuiltinCalls   int
	Subgoals       int // distinct tabled calls
	Answers        int // distinct tabled answers
	ProducerRuns   int // producer activations (one per subgoal)
	ProducerPasses int // clause passes inside producers (one per subgoal)
	Suspensions    int // consumer records saved at incomplete tables
	Resumptions    int // answers delivered to saved consumer records
	// TableBytes is the paper's "table space" measure and always equals
	// CallBytes + AnswerBytes. It counts allocated trie nodes at
	// term.TrieNodeBytes each, the real storage of both tables.
	TableBytes  int
	CallBytes   int // table space charged to call-table keys
	AnswerBytes int // table space charged to answer-table keys
	TableNodes  int // trie nodes allocated

	// ProvenanceBytes is the space charged to justification records
	// (Machine.Provenance): justRecordBytes per recorded answer plus
	// justPremiseBytes per premise ref. 0 with provenance disabled.
	ProvenanceBytes int

	// Closure-compilation accounting (ModeClosure only). PredsCompiled
	// counts predicates translated since the last ResetTables;
	// CompileNanos is the time spent translating them. A warm machine
	// reuses cached compiled code, so both stay 0 on repeated analyses.
	PredsCompiled int
	CompileNanos  int64
}

// Clause is a stored program clause with flattened body. The skeleton
// fields are a compiled form in which variables are replaced by indexed
// term.Ref placeholders, making per-resolution renaming a map-free copy.
type Clause struct {
	Head term.Term
	Body []term.Term
	Nth  int // source order within the predicate, for deterministic ordering
	// Pos is the clause's source position when it was consulted from
	// text (Consult); zero for asserted or generated clauses. Provenance
	// records carry it so justifications can point back into the source.
	Pos prolog.Pos

	skelHead term.Term
	skelBody []term.Term
	nvars    int
	hasCut   bool // the body holds a cut (see cutScoped)
}

// compile builds the renaming skeleton; called once when the clause is
// stored.
func (cl *Clause) compile() {
	idx := map[*term.Var]int{}
	cl.skelHead = term.CompileSkeleton(cl.Head, idx)
	cl.skelBody = make([]term.Term, len(cl.Body))
	for i, g := range cl.Body {
		cl.skelBody[i] = term.CompileSkeleton(g, idx)
	}
	cl.nvars = len(idx)
	for _, g := range cl.Body {
		cl.hasCut = cl.hasCut || containsCut(g)
	}
}

// Pred holds the clauses and properties of one predicate.
type Pred struct {
	Indicator string
	Tabled    bool
	Clauses   []*Clause

	// closure is the cached compiled form (ModeClosure); nil until first
	// use and invalidated by every clause-store change (assert, asserta,
	// retract). It survives ResetTables so repeated analyses on a warm
	// machine reuse compiled code.
	closure *closureCode
}

// Builtin is the implementation of a built-in predicate. It must call k
// for every solution (with bindings trailed on m.trail) and propagate k's
// "stop" result; it must leave the trail balanced for failed attempts.
type Builtin func(m *Machine, args []term.Term, k func() bool) bool

// TrieNodeBytes is the per-node charge of the trie representation's
// table-space accounting (re-exported from internal/term so stats
// consumers need not import the term package for it).
const TrieNodeBytes = term.TrieNodeBytes

// Machine is a logic program plus its evaluation state.
type Machine struct {
	Mode   LoadMode
	Limits Limits
	// Provenance enables justification recording (see provenance.go):
	// every distinct tabled answer records its producing clause and the
	// tabled premise answers consumed, retrievable via Justification and
	// Explain. Set it before the first query; answers recorded while it
	// was off have no justification. Costs one bool check per answer
	// return and per answer insertion when off.
	Provenance bool
	Out        io.Writer // target of write/1 etc.; defaults to os.Stdout

	// AnswerDepth, when positive, tables answers in the paper's §5
	// term-depth domain: each argument of an answer is cut at depth
	// AnswerDepth (a ground subterm at the cut becomes term.Gamma,
	// anything else a variable) and linearized during the answer-trie
	// insert, which keeps the answer tables finite; and a call is matched
	// against the stored answers by abstract unification, under which γ
	// denotes every ground term. 0 tables answers as derived.
	AnswerDepth int
	// CallAbstraction, if set, maps a tabled call to the (more general)
	// call actually tabled. Goal-directed analyses over depth-bounded
	// domains need it: inner calls compose depth-cut bindings into
	// ever-deeper variants, and abstracting the call keeps the subgoal
	// table finite. Answers of the abstracted call are unified against
	// the original call (abstractly under AnswerDepth), so generalizing
	// is sound — it can only produce a superset of answers.
	CallAbstraction func(call term.Term) term.Term

	preds    map[pkey]*Pred
	builtins map[pkey]Builtin
	trail    term.Trail

	// Call table: callTrie indexes the entries by variant class (an
	// XSB-style term trie over interned symbols, created at the first
	// tabled call) and subgoals lists them in creation order.
	callTrie *term.Trie
	symCache *term.SymCache // intern memo shared by tries and closure code
	subgoals []*subgoal

	// cenv is the runtime environment shared by every compiled clause
	// activation of this machine (ModeClosure); created lazily.
	cenv *compile.Env

	stack      []*subgoal // producers whose activation is running
	complStack []*subgoal // completion stack: incomplete subgoals, dfn order
	nextDfn    int
	stats      Stats
	depth      int

	// passMark is the trail mark at the current producer activation's
	// entry: a consumer saved now snapshots the bindings above it.
	passMark int
	// noSuspend seals the current context: a tabled call here may not
	// leave a consumer record (see cutScoped and ErrNonResumable).
	noSuspend bool

	// premises is the provenance premise stack (see provenance.go):
	// the tabled answers consumed along the current derivation path.
	// Empty unless Provenance is set.
	premises  []AnswerRef
	provNodes int // justification records + premise refs, vs Limits.MaxProvNodes

	// tracer, when non-nil, receives evaluation events (subgoal created,
	// answer added/duplicate, producer run/pass, completion, resolution
	// counts). Disabled tracing costs one nil check per hook site and
	// allocates nothing.
	tracer obs.EngineTracer

	// ctx, when non-nil, is polled every ctxCheckInterval steps of the
	// solve loop (see SetContext); steps is the poll countdown counter.
	ctx   context.Context
	steps int
}

// New returns an empty machine in dynamic load mode.
func New() *Machine {
	m := &Machine{
		preds:    map[pkey]*Pred{},
		builtins: map[pkey]Builtin{},
		Out:      os.Stdout,
	}
	registerBuiltins(m)
	return m
}

// Stats returns a copy of the evaluation counters.
func (m *Machine) Stats() Stats { return m.stats }

// SetTracer installs an event tracer (typically an *obs.Trace); nil
// disables tracing. Emit is called on evaluation hot paths, so tracers
// must be cheap and must not re-enter the machine. SetTracer is not
// safe to call while a Solve is in progress.
func (m *Machine) SetTracer(t obs.EngineTracer) { m.tracer = t }

// ResetTables discards all tabled calls and answers (keeping the
// program), so a fresh query re-derives everything.
func (m *Machine) ResetTables() {
	m.callTrie = nil
	m.subgoals = nil
	m.stack = nil
	m.complStack = nil
	m.nextDfn = 0
	m.noSuspend = false
	m.stats = Stats{}
	m.premises = nil
	m.provNodes = 0
}

// pkey is the allocation-free predicate table key.
type pkey struct {
	name  string
	arity int
}

func (k pkey) String() string { return fmt.Sprintf("%s/%d", k.name, k.arity) }

// parsePkey splits an indicator string "name/arity".
func parsePkey(indicator string) pkey {
	i := strings.LastIndexByte(indicator, '/')
	if i < 0 {
		return pkey{name: indicator}
	}
	n, err := strconv.Atoi(indicator[i+1:])
	if err != nil {
		return pkey{name: indicator}
	}
	return pkey{name: indicator[:i], arity: n}
}

// Pred returns the predicate entry for an indicator ("name/arity"),
// creating it if needed.
func (m *Machine) Pred(indicator string) *Pred {
	return m.pred(parsePkey(indicator))
}

func (m *Machine) pred(k pkey) *Pred {
	p, ok := m.preds[k]
	if !ok {
		p = &Pred{Indicator: k.String()}
		m.preds[k] = p
	}
	return p
}

// HasPred reports whether any clauses or declarations exist for indicator.
func (m *Machine) HasPred(indicator string) bool {
	_, ok := m.preds[parsePkey(indicator)]
	return ok
}

// Table marks the given predicate indicators as tabled.
func (m *Machine) Table(indicators ...string) {
	for _, ind := range indicators {
		m.Pred(ind).Tabled = true
	}
}

// TableAll marks every currently-defined predicate as tabled.
func (m *Machine) TableAll() {
	for _, p := range m.preds {
		p.Tabled = true
	}
}

// Predicates returns the sorted indicators of all defined predicates.
func (m *Machine) Predicates() []string {
	out := make([]string, 0, len(m.preds))
	for k := range m.preds {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
}

// Assert adds a clause (head :- body) at the end of its predicate,
// honoring the machine's load mode. This is the engine's analogue of
// XSB's assert, the "dynamic compilation" the paper relies on for low
// preprocessing cost.
func (m *Machine) Assert(clause term.Term) error {
	return m.assertAt(clause, prolog.Pos{})
}

// assertAt is Assert with a recorded source position (zero when the
// clause did not come from text).
func (m *Machine) assertAt(clause term.Term, pos prolog.Pos) error {
	head, body := prolog.SplitClause(clause)
	if head == nil {
		return m.directive(body)
	}
	name, hargs, ok := term.FunctorArity(head)
	if !ok {
		return fmt.Errorf("engine: cannot assert clause with non-callable head %v", head)
	}
	k := pkey{name: name, arity: len(hargs)}
	if _, isBuiltin := m.builtins[k]; isBuiltin {
		return fmt.Errorf("engine: cannot redefine builtin %s", k)
	}
	p := m.pred(k)
	cl := &Clause{Head: head, Body: prolog.Conjuncts(body), Nth: len(p.Clauses), Pos: pos}
	cl.compile()
	p.Clauses = append(p.Clauses, cl)
	p.closure = nil // invalidate cached closure code
	return nil
}

// Consult parses src as a Prolog program and loads every clause,
// processing ':- table p/n' (and ignoring other) directives. Clauses
// keep their source positions, so provenance records can point back
// into src.
func (m *Machine) Consult(src string) error {
	infos, err := prolog.ParseProgramInfo(src)
	if err != nil {
		return err
	}
	for _, ci := range infos {
		if err := m.assertAt(ci.Term, ci.Pos); err != nil {
			return err
		}
	}
	m.finishLoad()
	return nil
}

// ConsultTerms loads pre-parsed clauses (no source positions).
func (m *Machine) ConsultTerms(clauses []term.Term) error {
	for _, c := range clauses {
		if err := m.Assert(c); err != nil {
			return err
		}
	}
	m.finishLoad()
	return nil
}

// finishLoad runs the mode-specific preprocessing after a batch load.
func (m *Machine) finishLoad() {
	if m.Mode == ModeClosure {
		// Compile eagerly so the cost is paid at load time (the paper's
		// preprocessing phase), not inside the first query's solve time.
		m.compileAll()
	}
}

// directive interprets a ':- Goal' directive at load time. 'table'
// declarations configure tabling; dynamic/discontiguous are accepted and
// ignored; anything else is an error (we do not run goals at load time).
func (m *Machine) directive(goal term.Term) error {
	f, args, ok := term.FunctorArity(goal)
	if !ok {
		return fmt.Errorf("engine: bad directive %v", goal)
	}
	switch f {
	case "table":
		for _, spec := range splitCommaList(args[0]) {
			ind, err := parseIndicator(spec)
			if err != nil {
				return err
			}
			m.Table(ind)
		}
		return nil
	case "dynamic", "discontiguous", "multifile", "mode":
		return nil
	}
	return fmt.Errorf("engine: unsupported directive :- %v", goal)
}

func splitCommaList(t term.Term) []term.Term {
	if c, ok := term.Deref(t).(*term.Compound); ok && c.Functor == "," && len(c.Args) == 2 {
		return append(splitCommaList(c.Args[0]), splitCommaList(c.Args[1])...)
	}
	return []term.Term{t}
}

func parseIndicator(t term.Term) (string, error) {
	c, ok := term.Deref(t).(*term.Compound)
	if !ok || c.Functor != "/" || len(c.Args) != 2 {
		return "", fmt.Errorf("engine: bad predicate indicator %v", t)
	}
	name, ok1 := term.Deref(c.Args[0]).(term.Atom)
	arity, ok2 := term.Deref(c.Args[1]).(term.Int)
	if !ok1 || !ok2 || arity < 0 {
		return "", fmt.Errorf("engine: bad predicate indicator %v", t)
	}
	return fmt.Sprintf("%s/%d", name, arity), nil
}

// engineError carries an evaluation error out of deep recursion.
type engineError struct{ err error }

func (m *Machine) throwf(format string, args ...any) {
	panic(engineError{fmt.Errorf("engine: "+format, args...)})
}

// Solve proves goal, invoking yield for each solution with bindings in
// place. If yield returns true the search stops early. The trail is
// fully unwound before Solve returns, so bindings must be snapshotted
// (term.Resolve + term.Rename) inside yield if they are to be kept.
func (m *Machine) Solve(goal term.Term, yield func() bool) (err error) {
	mark := m.trail.Mark()
	defer func() {
		m.trail.Undo(mark)
		// A limit throw unwinds past the premise pushes in solveTabled
		// and the producer frames; rebalance so a later Solve starts
		// from clean stacks.
		m.premises = m.premises[:0]
		if r := recover(); r != nil {
			m.stack = m.stack[:0]
			m.noSuspend = false
			if ee, ok := r.(engineError); ok {
				err = ee.err
				return
			}
			panic(r)
		}
	}()
	m.depth = 0
	m.solve(goal, yield)
	return nil
}

// GoalError wraps an evaluation error with the index of the SolveAll
// goal whose evaluation produced it, so callers can attribute the
// failure (the analyzers name the predicate being analyzed). It is
// transparent to errors.Is/errors.As via Unwrap.
type GoalError struct {
	Index int // index into the SolveAll goal list
	Err   error
}

func (e *GoalError) Error() string { return e.Err.Error() }
func (e *GoalError) Unwrap() error { return e.Err }

// SolveAll proves each goal in order, enumerating and discarding every
// solution — the analyses' solve phase. The first evaluation error is
// returned as a *GoalError.
func (m *Machine) SolveAll(goals []term.Term) error {
	for i, g := range goals {
		if err := m.Solve(g, func() bool { return false }); err != nil {
			return &GoalError{Index: i, Err: err}
		}
	}
	return nil
}

// Query parses goalSrc, proves it, and returns snapshots of the goal
// instance for every solution (in derivation order, duplicates included
// for non-tabled predicates).
func (m *Machine) Query(goalSrc string) ([]term.Term, error) {
	goal, _, err := prolog.ParseTerm(goalSrc)
	if err != nil {
		return nil, err
	}
	var out []term.Term
	err = m.Solve(goal, func() bool {
		out = append(out, term.Rename(term.Resolve(goal), nil))
		return false
	})
	return out, err
}

// QueryFirst returns the first solution of goalSrc, or ok=false.
func (m *Machine) QueryFirst(goalSrc string) (term.Term, bool, error) {
	goal, _, err := prolog.ParseTerm(goalSrc)
	if err != nil {
		return nil, false, err
	}
	var out term.Term
	err = m.Solve(goal, func() bool {
		out = term.Rename(term.Resolve(goal), nil)
		return true
	})
	return out, out != nil, err
}

// ProgramString renders the loaded program back as Prolog text (used in
// tests and by the preprocessing cost accounting).
func (m *Machine) ProgramString() string {
	var sb strings.Builder
	for _, ind := range m.Predicates() {
		p := m.preds[parsePkey(ind)]
		if p.Tabled {
			fmt.Fprintf(&sb, ":- table %s.\n", ind)
		}
		for _, cl := range p.Clauses {
			sb.WriteString(cl.Head.String())
			if len(cl.Body) != 1 || cl.Body[0].String() != "true" {
				sb.WriteString(" :- ")
				for i, g := range cl.Body {
					if i > 0 {
						sb.WriteString(", ")
					}
					sb.WriteString(g.String())
				}
			}
			sb.WriteString(".\n")
		}
	}
	return sb.String()
}
