package strict

import (
	"fmt"
	"strings"

	"xlp/internal/analysis"
	"xlp/internal/engine"
	"xlp/internal/fl"
	"xlp/internal/lint"
	"xlp/internal/prolog"
	"xlp/internal/supptab"
	"xlp/internal/term"
)

func parseAll(src string) ([]term.Term, error) {
	return prolog.ParseProgram(src)
}

// demandVal reads a demand argument, treating an unbound variable as n
// (no demand). This is the key to keeping the derived program's joins
// small: unevaluated occurrences never force enumeration.
func demandVal(t term.Term) Demand {
	if d, ok := DemandOf(t); ok {
		return d
	}
	return N
}

// RegisterDemandOps installs the native demand-lattice operations:
//
//	lub(D1, D2, L)     — L is the least upper bound of D1 and D2
//	cond_demand(D, Dc) — the demand a conditional places on its
//	                     condition: n stays n, anything else becomes d
//
// Both are deterministic and read unbound inputs as n.
func RegisterDemandOps(m *engine.Machine) {
	m.Register("lub/3", func(m *engine.Machine, args []term.Term, k func() bool) bool {
		v := Lub(demandVal(args[0]), demandVal(args[1]))
		tr := m.BuiltinTrail()
		mark := tr.Mark()
		if term.Unify(args[2], v.Atom(), tr) {
			if k() {
				tr.Undo(mark)
				return true
			}
		}
		tr.Undo(mark)
		return false
	})
	m.Register("cond_demand/2", func(m *engine.Machine, args []term.Term, k func() bool) bool {
		dc := demandVal(args[0])
		if dc > D {
			dc = D
		}
		tr := m.BuiltinTrail()
		mark := tr.Mark()
		if term.Unify(args[1], dc.Atom(), tr) {
			if k() {
				tr.Undo(mark)
				return true
			}
		}
		tr.Undo(mark)
		return false
	})
}

// Options configure a strictness-analysis run; strict also reads
// NoSupplementary. Entries select functions. Derivations cite clause
// indexes without source positions: the strictness transform generates
// its abstract clauses.
type Options = analysis.Options

// FuncResult is the strictness result for one function.
type FuncResult struct {
	Indicator string
	Arity     int
	// UnderE[i] is the demand guaranteed on argument i when the result
	// is demanded in full (e-demand on the output).
	UnderE []Demand
	// UnderD[i] is the demand guaranteed on argument i when the result
	// is demanded to head-normal form.
	UnderD []Demand
	// AnswersE / AnswersD count the combined abstract answers.
	AnswersE, AnswersD int
}

// Strict reports whether the function is strict in argument i in
// Mycroft's sense: evaluating the application (to HNF) always requires
// evaluating argument i.
func (r *FuncResult) Strict(i int) bool { return r.UnderD[i] >= D }

// String renders the result like "ap: e-demand -> (e,e); d-demand -> (d,n)".
func (r *FuncResult) String() string {
	fmtDs := func(ds []Demand) string {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = d.String()
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	return fmt.Sprintf("%s: e->%s d->%s", r.Indicator, fmtDs(r.UnderE), fmtDs(r.UnderD))
}

// Analysis is a full strictness run with the paper's phase breakdown
// (Table 3's columns).
type Analysis struct {
	analysis.Report
	Results     map[string]*FuncResult
	SourceLines int
}

// LinesPerSecond returns source-lines-per-second throughput (the paper
// reports "about 200 to 350 source lines per second").
func (a *Analysis) LinesPerSecond() float64 {
	secs := a.Total().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(a.SourceLines) / secs
}

// Analyze runs strictness analysis on a functional source program.
func Analyze(src string, opts Options) (*Analysis, error) {
	d := &domain{opts: opts, a: &Analysis{Results: map[string]*FuncResult{}}}
	rep, err := analysis.Run(src, opts, d)
	if err != nil {
		return nil, err
	}
	d.a.Report = rep
	return d.a, nil
}

// domain is demand strictness on the analysis pipeline.
type domain struct {
	opts Options
	a    *Analysis
	full *fl.Program
	tf   *Transformed
}

func (d *domain) Name() string { return "strict" }

func (d *domain) Parse(src string) ([]string, error) {
	prog, err := fl.Parse(src)
	if err != nil {
		return nil, err
	}
	d.full = prog
	d.a.SourceLines = prog.Lines
	return prog.Order, nil
}

func (d *domain) Transform(keep []string) (map[string]string, error) {
	prog := d.full
	if keep != nil {
		prog = lint.SliceFL(prog, keep)
	}
	tf, err := Transform(prog)
	if err != nil {
		return nil, err
	}
	d.tf = tf
	return tf.SpPreds, nil
}

func (d *domain) Load(m *engine.Machine) error {
	RegisterDemandOps(m)
	clauses := d.tf.Clauses
	var extraTabled []string
	if !d.opts.NoSupplementary {
		st := supptab.Transform(clauses, 3)
		clauses = st.Clauses
		extraTabled = st.Tabled
	}
	if err := m.ConsultTerms(clauses); err != nil {
		return err
	}
	for _, sp := range d.tf.SpPreds {
		m.Table(sp)
	}
	m.Table(extraTabled...)
	return nil
}

// Goals evaluates each function's sp predicate under e- and then
// d-demand, in indicator order: the demand ops read unbound demand
// variables as n, so the derived program is not monotone and recorded
// answer sets can depend on evaluation order — a map-order walk here
// made results differ from run to run on the same input.
func (d *domain) Goals(entries []analysis.Entry) []analysis.Goal {
	var goals []analysis.Goal
	for _, ind := range analysis.Indicators(entries) {
		for _, dm := range []term.Term{DemandE, DemandD} {
			goals = append(goals, analysis.Goal{Ind: ind, Call: spCall(d.tf.SpPreds[ind], dm)})
		}
	}
	return goals
}

// Collect folds each function's tables into its result. Functions
// sliced away have no tables; collecting them through the same path
// makes their (empty) results match an unsliced run's.
func (d *domain) Collect(m *engine.Machine) {
	for _, ind := range d.full.Order {
		sp, analyzed := d.tf.SpPreds[ind]
		if !analyzed {
			name, arity := term.SplitIndicator(ind)
			sp = fmt.Sprintf("%s/%d", spName(name, arity), arity+1)
		}
		d.a.Results[ind] = collect(m, ind, sp)
	}
}

func spCall(spInd string, demand term.Term) term.Term {
	name, arity := term.SplitIndicator(spInd)
	args := make([]term.Term, arity)
	args[0] = demand
	for i := 1; i < arity; i++ {
		args[i] = term.NewVar("V")
	}
	return term.NewCompound(name, args...)
}

// collect combines the answers of sp_f(e, ...) and sp_f(d, ...) by
// per-argument glb: an argument's guaranteed demand is the weakest
// demand over all ways the function can propagate demand (unbound
// answer variables mean no demand, i.e. n).
func collect(m *engine.Machine, ind, spInd string) *FuncResult {
	_, spArity := term.SplitIndicator(spInd)
	arity := spArity - 1
	res := &FuncResult{
		Indicator: ind,
		Arity:     arity,
		UnderE:    make([]Demand, arity),
		UnderD:    make([]Demand, arity),
	}
	for i := range res.UnderE {
		res.UnderE[i] = E
		res.UnderD[i] = E
	}
	for _, dump := range m.DumpTables(spInd) {
		_, callArgs, _ := term.FunctorArity(dump.Call)
		if len(callArgs) == 0 {
			continue
		}
		callDemand, ok := DemandOf(callArgs[0])
		if !ok {
			continue // recorded call with unbound demand (inner call)
		}
		for _, ans := range dump.Answers {
			_, ansArgs, _ := term.FunctorArity(ans)
			switch callDemand {
			case E:
				foldGlb(res.UnderE, ansArgs[1:])
				res.AnswersE++
			case D:
				foldGlb(res.UnderD, ansArgs[1:])
				res.AnswersD++
			}
		}
	}
	// No successes under a demand: the function diverges under it; the
	// vacuous glb (E everywhere) is technically sound and is reported
	// as-is, matching the relational semantics.
	return res
}

func foldGlb(acc []Demand, args []term.Term) {
	for i, a := range args {
		d, ok := DemandOf(a)
		if !ok {
			d = N // unbound: no demand propagated
		}
		acc[i] = Glb(acc[i], d)
	}
}
