package prop

import (
	"fmt"
	"strings"

	"xlp/internal/analysis"
	"xlp/internal/boolfn"
	"xlp/internal/engine"
	"xlp/internal/lint"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// Options configure an analysis run; prop also reads PureIff. With
// Provenance, source clause positions are stamped onto the generated
// abstract clauses, so derivations point back into the source program.
type Options = analysis.Options

// GroundState describes one argument position of a recorded call.
type GroundState int

const (
	Unknown   GroundState = iota // free at call time
	Ground                       // known ground at call time
	NonGround                    // known non-ground at call time
)

func (g GroundState) String() string {
	switch g {
	case Ground:
		return "g"
	case NonGround:
		return "ng"
	}
	return "?"
}

// CallPattern is the input groundness of one recorded call.
type CallPattern struct {
	Args []GroundState
}

func (cp CallPattern) String() string {
	parts := make([]string, len(cp.Args))
	for i, a := range cp.Args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// PredResult is the analysis result for one source predicate.
type PredResult struct {
	Indicator string // source indicator p/n
	Arity     int
	Success   *boolfn.Fun // output groundness formula over argument positions
	// GroundArgs[i] reports that argument i is ground in every success.
	GroundArgs []bool
	// Calls are the distinct recorded input patterns (goal-directed runs).
	Calls []CallPattern
	// AnswerCount is the number of distinct abstract answers combined.
	AnswerCount int
	// Reachable is false when no call to the predicate was recorded
	// (goal-directed analysis of dead code).
	Reachable bool
}

// FormatSuccess renders the success formula with A1..An argument names.
func (r *PredResult) FormatSuccess() string {
	names := make([]string, r.Arity)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i+1)
	}
	return r.Success.Format(names)
}

// Analysis is a full groundness-analysis run with the paper's cost
// breakdown (Table 1's columns).
type Analysis struct {
	analysis.Report
	Results      map[string]*PredResult
	AbstractSize int // number of abstract clauses
	// SlicedOut lists predicates removed by Options.Slice before the
	// transform (reported in Results as unreachable), in definition order.
	SlicedOut []string
}

// Analyze runs Prop-domain groundness analysis on a Prolog source
// program.
func Analyze(src string, opts Options) (*Analysis, error) {
	d := &domain{opts: opts, a: &Analysis{Results: map[string]*PredResult{}}}
	rep, err := analysis.Run(src, opts, d)
	if err != nil {
		return nil, err
	}
	d.a.Report = rep
	return d.a, nil
}

// domain is the Prop domain on the analysis pipeline.
type domain struct {
	opts    Options
	a       *Analysis
	full    []term.Term // the parsed program
	defined []string    // its predicates, in definition order
	clauses []term.Term // the program analyzed: full, or its slice
	pos     map[term.Term]prolog.Pos
	tf      *Transformed
}

func (d *domain) Name() string { return "prop" }

func (d *domain) Parse(src string) ([]string, error) {
	if d.opts.Provenance {
		// Track positions so justifications can cite source clauses.
		infos, err := prolog.ParseProgramInfo(src)
		if err != nil {
			return nil, err
		}
		d.pos = make(map[term.Term]prolog.Pos, len(infos))
		for _, ci := range infos {
			d.full = append(d.full, ci.Term)
			d.pos[ci.Term] = ci.Pos
		}
	} else {
		var err error
		if d.full, err = prolog.ParseProgram(src); err != nil {
			return nil, err
		}
	}
	d.defined = lint.Predicates(d.full)
	return d.defined, nil
}

func (d *domain) Transform(keep []string) (map[string]string, error) {
	d.clauses = d.full
	if keep != nil {
		d.clauses = lint.Slice(d.full, keep)
	}
	tf, err := Transform(d.clauses)
	if err != nil {
		return nil, err
	}
	d.tf = tf
	d.a.AbstractSize = len(tf.Clauses)
	return tf.Preds, nil
}

func (d *domain) Load(m *engine.Machine) error {
	maxIff := max(d.tf.MaxIffArity, 2)
	if d.opts.PureIff {
		if err := m.Consult(PureIffClauses(maxIff)); err != nil {
			return err
		}
	} else {
		RegisterIff(m, maxIff)
	}
	if err := m.ConsultTerms(d.tf.Clauses); err != nil {
		return err
	}
	// Table every abstract predicate; declare called-but-undefined ones
	// so they fail finitely.
	for _, abs := range d.tf.Preds {
		m.Table(abs)
	}
	for _, abs := range d.tf.Called {
		m.Table(abs)
	}
	stampPositions(m, d.clauses, d.tf.Preds, d.pos)
	return nil
}

// Goals calls each entry's abstract predicate, in entry order: open, or
// with the entry goal's ground arguments as true inputs.
func (d *domain) Goals(entries []analysis.Entry) []analysis.Goal {
	goals := make([]analysis.Goal, len(entries))
	for i, e := range entries {
		call := term.OpenCall(d.tf.Preds[e.Ind])
		if e.Goal != nil {
			call = abstractEntry(e.Goal)
		}
		goals[i] = analysis.Goal{Ind: e.Ind, Call: call}
	}
	return goals
}

// Collect folds each predicate's tables into its result. Predicates
// sliced away have no tables: collecting them through the same path
// reports them the way a goal-directed run over the full program would
// — unreachable, with the empty success function.
func (d *domain) Collect(m *engine.Machine) {
	for _, ind := range d.defined {
		abs, analyzed := d.tf.Preds[ind]
		if !analyzed {
			abs = AbsIndicator(ind)
			d.a.SlicedOut = append(d.a.SlicedOut, ind)
		}
		d.a.Results[ind] = collect(m, ind, abs)
	}
}

// stampPositions copies source clause positions onto the generated
// abstract clauses. The transform emits exactly one abstract clause per
// source clause, in order, so the i-th clause of gp_p/n came from the
// i-th clause of p/n.
func stampPositions(m *engine.Machine, clauses []term.Term, preds map[string]string, pos map[term.Term]prolog.Pos) {
	if pos == nil {
		return
	}
	nth := map[string]int{}
	for _, c := range clauses {
		head, _ := prolog.SplitClause(c)
		if head == nil {
			continue // directives emit no abstract clause
		}
		ind, ok := term.Indicator(head)
		if !ok {
			continue
		}
		i := nth[ind]
		nth[ind]++
		absInd, ok := preds[ind]
		if !ok {
			continue
		}
		if cls := m.Pred(absInd).Clauses; i < len(cls) {
			if p, ok := pos[c]; ok {
				cls[i].Pos = p
			}
		}
	}
}

// abstractEntry maps a source entry goal to the abstract call: ground
// arguments become true, variables stay free.
func abstractEntry(goal term.Term) term.Term {
	name, args, _ := term.FunctorArity(goal)
	absArgs := make([]term.Term, len(args))
	for i, arg := range args {
		if term.IsGround(arg) {
			absArgs[i] = atomTrue
		} else {
			absArgs[i] = term.NewVar("E")
		}
	}
	return term.NewCompound(absName(name), absArgs...)
}

// collect folds a predicate's call tables into a PredResult: each answer
// tuple is one row of the truth table (free variables expand to both
// values); the disjunction of rows is the success formula. The calls
// recorded in the table give the input patterns.
func collect(m *engine.Machine, srcInd, absInd string) *PredResult {
	_, arity := term.SplitIndicator(absInd)
	res := &PredResult{
		Indicator: srcInd,
		Arity:     arity,
		Success:   boolfn.False(arity),
	}
	seenCalls := map[string]bool{}
	seenAnswers := map[string]bool{}
	for _, dump := range m.DumpTables(absInd) {
		res.Reachable = true
		if cp, ok := callPattern(dump.Call); ok && !seenCalls[cp.String()] {
			seenCalls[cp.String()] = true
			res.Calls = append(res.Calls, cp)
		}
		for _, ans := range dump.Answers {
			key := term.Canonical(ans)
			if seenAnswers[key] {
				continue
			}
			seenAnswers[key] = true
			res.AnswerCount++
			addAnswerRows(res.Success, ans)
		}
	}
	res.GroundArgs = make([]bool, arity)
	for i := 0; i < arity; i++ {
		res.GroundArgs[i] = res.Success.CertainlyGround(i)
	}
	return res
}

func callPattern(call term.Term) (CallPattern, bool) {
	_, args, ok := term.FunctorArity(call)
	if !ok {
		return CallPattern{}, false
	}
	cp := CallPattern{Args: make([]GroundState, len(args))}
	for i, a := range args {
		switch t := term.Deref(a).(type) {
		case term.Atom:
			switch t {
			case atomTrue:
				cp.Args[i] = Ground
			case atomFalse:
				cp.Args[i] = NonGround
			}
		default:
			cp.Args[i] = Unknown
		}
	}
	return cp, true
}

// addAnswerRows adds the truth-table rows denoted by one abstract answer
// tuple: bound true/false args fix bits, unbound args range over both
// values — consistently for repeated occurrences of the same variable
// (e.g. the base-case answer gp_ap(true, V, V) denotes exactly the rows
// where args 2 and 3 agree).
func addAnswerRows(f *boolfn.Fun, ans term.Term) {
	_, args, ok := term.FunctorArity(ans)
	if !ok {
		return
	}
	n := len(args)
	assign := map[*term.Var]bool{}
	var rec func(i int, row uint)
	rec = func(i int, row uint) {
		if i == n {
			f.SetRow(row)
			return
		}
		switch t := term.Deref(args[i]).(type) {
		case term.Atom:
			switch t {
			case atomTrue:
				rec(i+1, row|1<<uint(i))
				return
			case atomFalse:
				rec(i+1, row)
				return
			}
		case *term.Var:
			if val, seen := assign[t]; seen {
				if val {
					rec(i+1, row|1<<uint(i))
				} else {
					rec(i+1, row)
				}
				return
			}
			assign[t] = false
			rec(i+1, row)
			assign[t] = true
			rec(i+1, row|1<<uint(i))
			delete(assign, t)
			return
		}
		// Unexpected non-boolean constant: both values (conservative).
		rec(i+1, row)
		rec(i+1, row|1<<uint(i))
	}
	rec(0, 0)
}
