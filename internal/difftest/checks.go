package difftest

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/bddprop"
	"xlp/internal/bottomup"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/randgen"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// Meta is the program metadata a check needs beyond the source text. It
// survives shrinking unchanged (a shrunk candidate that invalidates the
// metadata — e.g. by dropping the entry predicate — fails with a
// different class and is rejected).
type Meta struct {
	Shape randgen.Shape
	Seed  int64
	Entry string
	Preds []string
}

// Check is one differential oracle: run returns nil when the pair
// agrees, a "mismatch: ..." error on disagreement, and an "error: ..."
// error when a backend fails outright.
type Check struct {
	Name string
	Lang randgen.Lang
	// AnyLang runs the check on every shape regardless of Lang (the
	// check's Run dispatches on the shape's language itself).
	AnyLang bool
	// DatalogOnly restricts the check to executable Datalog programs.
	DatalogOnly bool
	Run         func(m Meta, src string) error
}

// Applies reports whether the check runs on programs of the given shape.
func (c Check) Applies(s randgen.Shape) bool {
	if !c.AnyLang && c.Lang != s.Lang() {
		return false
	}
	if c.DatalogOnly && s != randgen.Datalog {
		return false
	}
	return true
}

// Checks returns the full oracle suite in a fixed order.
func Checks() []Check {
	return []Check{
		{Name: "prop-gaia", Lang: randgen.LangProlog, Run: propVsGaia},
		{Name: "prop-bdd", Lang: randgen.LangProlog, Run: propVsBDD},
		{Name: "modes_threeway", AnyLang: true, Run: modesThreeway},
		{Name: "prop-pureiff", Lang: randgen.LangProlog, Run: propPureIff},
		{Name: "prop-slice", Lang: randgen.LangProlog, Run: propSlice},
		{Name: "prop-alpha", Lang: randgen.LangProlog, Run: propAlpha},
		{Name: "prop-predrename", Lang: randgen.LangProlog, Run: propPredRename},
		{Name: "prop-clausereorder", Lang: randgen.LangProlog, Run: propClauseReorder},
		{Name: "prop-goalreorder", Lang: randgen.LangProlog, Run: propGoalReorder},
		{Name: "depthk-clausereorder", Lang: randgen.LangProlog, Run: depthkClauseReorder},
		{Name: "depthk-alpha", Lang: randgen.LangProlog, Run: depthkAlpha},
		{Name: "depthk-slice", Lang: randgen.LangProlog, Run: depthkSlice},
		{Name: "engine-bottomup", Lang: randgen.LangProlog, DatalogOnly: true, Run: engineVsBottomup},
		{Name: "naive-seminaive", Lang: randgen.LangProlog, DatalogOnly: true, Run: naiveVsSemiNaive},
		{Name: "strict-supp", Lang: randgen.LangFL, Run: strictSupp},
		{Name: "strict-slice", Lang: randgen.LangFL, Run: strictSlice},
		{Name: "strict-alpha", Lang: randgen.LangFL, Run: strictAlpha},
		{Name: "strict-predrename", Lang: randgen.LangFL, Run: strictPredRename},
		{Name: "strict-eqreorder", Lang: randgen.LangFL, Run: strictEqReorder},
		{Name: "provenance_sound", AnyLang: true, Run: provenanceSound},
		{Name: "store_roundtrip", AnyLang: true, Run: storeRoundtrip},
	}
}

// CheckByName resolves a check from the suite.
func CheckByName(name string) (Check, bool) {
	for _, c := range Checks() {
		if c.Name == name {
			return c, true
		}
	}
	return Check{}, false
}

func propRun(src string, opts prop.Options) (map[string]string, error) {
	a, err := prop.Analyze(src, opts)
	if err != nil {
		return nil, err
	}
	return propSummary(a, nil), nil
}

// propSuccessOnly keeps just the success truth tables (for comparison
// against backends that compute only success patterns).
func propSuccessOnly(a *prop.Analysis) map[string]string {
	out := map[string]string{}
	for ind, r := range a.Results {
		out[ind] = "success=" + funRows(r.Success, r.Arity)
	}
	return out
}

// propVsGaia: the tabled declarative analyzer vs the hand-built
// GAIA-style abstract interpreter (the paper's Table 2 identity).
func propVsGaia(m Meta, src string) error {
	pr, err := prop.Analyze(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop: %w", err)
	}
	ga, err := gaia.Analyze(src)
	if err != nil {
		return fmt.Errorf("error: gaia: %w", err)
	}
	return diffSummaries("prop", "gaia", propSuccessOnly(pr), gaiaSummary(ga), true)
}

// propVsBDD: the tabled analyzer vs the ROBDD bottom-up evaluator.
func propVsBDD(m Meta, src string) error {
	pr, err := prop.Analyze(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop: %w", err)
	}
	bd, err := bddprop.Analyze(src)
	if err != nil {
		return fmt.Errorf("error: bddprop: %w", err)
	}
	return diffSummaries("prop", "bdd", propSuccessOnly(pr), bddSummary(bd), true)
}

// loadModes are the two clause-resolution backends: the interpreter
// (LoadDynamic) and the closure compiler (ModeClosure). The
// modes_threeway oracle holds them against each other; it keeps the name
// it had when a third, first-argument-indexed backend existed.
var loadModes = []struct {
	name string
	mode engine.LoadMode
}{
	{"interp", engine.LoadDynamic},
	{"closure", engine.ModeClosure},
}

// propModeSummary is propSummary extended with the recorded call
// patterns, so the oracle demands exact answer AND call agreement.
func propModeSummary(a *prop.Analysis) map[string]string {
	out := propSummary(a, nil)
	for ind, r := range a.Results {
		if len(r.Calls) == 0 {
			continue
		}
		calls := make([]string, len(r.Calls))
		for i, c := range r.Calls {
			calls[i] = c.String()
		}
		sort.Strings(calls)
		out[ind] += " calls=" + strings.Join(calls, ",")
	}
	return out
}

// modesThreeway: the clause-resolution modes must agree exactly —
// answers, groundness, reachability, and recorded call patterns — on
// every program. Prolog shapes run the groundness analysis open-call
// and (when the program has an entry) goal-directed; FL shapes run the
// strictness analysis; generated Prolog programs additionally run the
// depth-k analysis, whose abstract answer sets are compared verbatim.
func modesThreeway(m Meta, src string) error {
	if m.Shape.Lang() == randgen.LangFL {
		sums := make([]map[string]string, len(loadModes))
		for i, lm := range loadModes {
			a, err := strict.Analyze(src, strict.Options{Mode: lm.mode})
			if err != nil {
				return fmt.Errorf("error: strict %s: %w", lm.name, err)
			}
			sums[i] = strictSummary(a, nil)
		}
		return diffModeSummaries(sums)
	}
	var opts []prop.Options
	opts = append(opts, prop.Options{})
	if m.Entry != "" {
		opts = append(opts, prop.Options{Entry: []string{m.Entry}})
	}
	for _, o := range opts {
		sums := make([]map[string]string, len(loadModes))
		for i, lm := range loadModes {
			o.Mode = lm.mode
			a, err := prop.Analyze(src, o)
			if err != nil {
				return fmt.Errorf("error: prop %s: %w", lm.name, err)
			}
			sums[i] = propModeSummary(a)
		}
		if err := diffModeSummaries(sums); err != nil {
			return err
		}
	}
	// Depth-k compares abstract answer sets term by term; gated to
	// generated programs for the same budget reason as the trie oracle.
	if len(m.Preds) == 0 {
		return nil
	}
	sums := make([]map[string]string, len(loadModes))
	for i, lm := range loadModes {
		a, err := depthk.Analyze(src, depthk.Options{K: depthkK, Mode: lm.mode})
		if err != nil {
			return fmt.Errorf("error: depthk %s: %w", lm.name, err)
		}
		sums[i] = depthkSummary(a, nil)
	}
	return diffModeSummaries(sums)
}

// diffModeSummaries holds the closure compiler's summary against the
// interpreter's.
func diffModeSummaries(sums []map[string]string) error {
	return diffSummaries(loadModes[0].name, loadModes[1].name, sums[0], sums[1], false)
}

// propPureIff: native iff/N builtin vs generated pure Prolog clauses.
func propPureIff(m Meta, src string) error {
	native, err := propRun(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop native: %w", err)
	}
	pure, err := propRun(src, prop.Options{PureIff: true})
	if err != nil {
		return fmt.Errorf("error: prop pureiff: %w", err)
	}
	return diffSummaries("native-iff", "pure-iff", native, pure, false)
}

// propSlice: goal-directed analysis of the sliced program equals the
// same goal-directed run over the full program.
func propSlice(m Meta, src string) error {
	full, err := propRun(src, prop.Options{Entry: []string{m.Entry}})
	if err != nil {
		return fmt.Errorf("error: prop entry: %w", err)
	}
	sliced, err := propRun(src, prop.Options{Entry: []string{m.Entry}, Slice: true})
	if err != nil {
		return fmt.Errorf("error: prop sliced: %w", err)
	}
	return diffSummaries("unsliced", "sliced", full, sliced, false)
}

func propAlpha(m Meta, src string) error {
	base, err := propRun(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop: %w", err)
	}
	ren, err := propRun(alphaRename(src), prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop alpha: %w", err)
	}
	return diffSummaries("base", "alpha", base, ren, false)
}

func propPredRename(m Meta, src string) error {
	base, err := prop.Analyze(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop: %w", err)
	}
	mapping := renameMap(m.Preds)
	ren, err := prop.Analyze(renamePreds(src, mapping), prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop renamed: %w", err)
	}
	// Map the base results forward through the renaming and compare.
	return diffSummaries("base", "renamed", propSummary(base, mapping), propSummary(ren, nil), false)
}

func propClauseReorder(m Meta, src string) error {
	base, err := propRun(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop: %w", err)
	}
	reord, err := propRun(reorderClauses(src, m.Seed+1), prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop reordered: %w", err)
	}
	return diffSummaries("base", "clause-reordered", base, reord, false)
}

func propGoalReorder(m Meta, src string) error {
	base, err := propRun(src, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop: %w", err)
	}
	shuffled, err := reorderGoals(src, m.Seed+2)
	if err != nil {
		return fmt.Errorf("error: goal reorder transform: %w", err)
	}
	reord, err := propRun(shuffled, prop.Options{})
	if err != nil {
		return fmt.Errorf("error: prop goal-reordered: %w", err)
	}
	return diffSummaries("base", "goal-reordered", base, reord, false)
}

const depthkK = 2

func depthkClauseReorder(m Meta, src string) error {
	base, err := depthk.Analyze(src, depthk.Options{K: depthkK})
	if err != nil {
		return fmt.Errorf("error: depthk: %w", err)
	}
	reord, err := depthk.Analyze(reorderClauses(src, m.Seed+3), depthk.Options{K: depthkK})
	if err != nil {
		return fmt.Errorf("error: depthk reordered: %w", err)
	}
	return diffSummaries("base", "clause-reordered", depthkSummary(base, nil), depthkSummary(reord, nil), false)
}

func depthkAlpha(m Meta, src string) error {
	base, err := depthk.Analyze(src, depthk.Options{K: depthkK})
	if err != nil {
		return fmt.Errorf("error: depthk: %w", err)
	}
	ren, err := depthk.Analyze(alphaRename(src), depthk.Options{K: depthkK})
	if err != nil {
		return fmt.Errorf("error: depthk alpha: %w", err)
	}
	return diffSummaries("base", "alpha", depthkSummary(base, nil), depthkSummary(ren, nil), false)
}

// depthkSlice: goal-directed depth-k analysis of the entry's sliced
// cone must equal the unsliced goal-directed run, and both runs must
// reach the entry predicate — two runs that analyzed nothing would
// agree vacuously.
func depthkSlice(m Meta, src string) error {
	full, err := depthk.Analyze(src, depthk.Options{K: depthkK, Entry: []string{m.Entry}})
	if err != nil {
		return fmt.Errorf("error: depthk entry: %w", err)
	}
	sliced, err := depthk.Analyze(src, depthk.Options{K: depthkK, Entry: []string{m.Entry}, Slice: true})
	if err != nil {
		return fmt.Errorf("error: depthk sliced: %w", err)
	}
	inds, _, err := lint.ResolveEntry(m.Entry, m.Preds)
	if err != nil {
		return fmt.Errorf("error: %w", err)
	}
	for _, ind := range inds {
		if r := full.Results[ind]; r == nil || !r.Reachable {
			return fmt.Errorf("mismatch: unsliced run did not reach entry %s", ind)
		}
		if r := sliced.Results[ind]; r == nil || !r.Reachable {
			return fmt.Errorf("mismatch: sliced run did not reach entry %s", ind)
		}
	}
	return diffSummaries("unsliced", "sliced", depthkSummary(full, nil), depthkSummary(sliced, nil), false)
}

// engineAnswers enumerates all answers to an open call of each predicate
// on the tabled top-down engine.
func engineAnswers(src string, preds []string) (map[string]string, error) {
	m := engine.New()
	if err := m.Consult(src); err != nil {
		return nil, fmt.Errorf("consult: %w", err)
	}
	out := map[string]string{}
	for _, ind := range preds {
		goal := term.OpenCall(ind)
		var answers []term.Term
		err := m.Solve(goal, func() bool {
			answers = append(answers, term.Rename(term.Resolve(goal), nil))
			return false
		})
		if err != nil {
			return nil, fmt.Errorf("solve %s: %w", ind, err)
		}
		out[ind] = answerSet(answers)
	}
	return out, nil
}

// bottomupFacts computes the fixpoint and returns the canonical fact set
// per predicate.
func bottomupFacts(src string, preds []string, naive bool) (map[string]string, error) {
	sys := bottomup.New()
	if err := sys.Consult(src); err != nil {
		return nil, fmt.Errorf("consult: %w", err)
	}
	var err error
	if naive {
		_, err = sys.Naive()
	} else {
		_, err = sys.SemiNaive()
	}
	if err != nil {
		return nil, fmt.Errorf("fixpoint: %w", err)
	}
	out := map[string]string{}
	for _, ind := range preds {
		out[ind] = answerSet(sys.Facts(ind))
	}
	return out, nil
}

// engineVsBottomup: on executable Datalog, the tabled top-down engine
// and the bottom-up semi-naive evaluator must derive the same fact sets
// (the paper's Table 1 vs Table 3 setting).
func engineVsBottomup(m Meta, src string) error {
	top, err := engineAnswers(src, m.Preds)
	if err != nil {
		return fmt.Errorf("error: engine: %w", err)
	}
	bottom, err := bottomupFacts(src, m.Preds, false)
	if err != nil {
		return fmt.Errorf("error: bottomup: %w", err)
	}
	return diffSummaries("engine", "bottomup", top, bottom, false)
}

// naiveVsSemiNaive: the two fixpoint strategies must agree exactly.
func naiveVsSemiNaive(m Meta, src string) error {
	nv, err := bottomupFacts(src, m.Preds, true)
	if err != nil {
		return fmt.Errorf("error: naive: %w", err)
	}
	sn, err := bottomupFacts(src, m.Preds, false)
	if err != nil {
		return fmt.Errorf("error: seminaive: %w", err)
	}
	return diffSummaries("naive", "seminaive", nv, sn, false)
}

func strictRun(src string, opts strict.Options, rename map[string]string) (map[string]string, error) {
	a, err := strict.Analyze(src, opts)
	if err != nil {
		return nil, err
	}
	return strictSummary(a, rename), nil
}

// strictSupp: the supplementary-tabling optimization must not change
// demand results.
func strictSupp(m Meta, src string) error {
	base, err := strictRun(src, strict.Options{}, nil)
	if err != nil {
		return fmt.Errorf("error: strict: %w", err)
	}
	nosupp, err := strictRun(src, strict.Options{NoSupplementary: true}, nil)
	if err != nil {
		return fmt.Errorf("error: strict nosupp: %w", err)
	}
	return diffSummaries("supp", "nosupp", base, nosupp, false)
}

func strictSlice(m Meta, src string) error {
	full, err := strictRun(src, strict.Options{Entry: []string{m.Entry}}, nil)
	if err != nil {
		return fmt.Errorf("error: strict entry: %w", err)
	}
	sliced, err := strictRun(src, strict.Options{Entry: []string{m.Entry}, Slice: true}, nil)
	if err != nil {
		return fmt.Errorf("error: strict sliced: %w", err)
	}
	return diffSummaries("unsliced", "sliced", full, sliced, false)
}

func strictAlpha(m Meta, src string) error {
	base, err := strictRun(src, strict.Options{}, nil)
	if err != nil {
		return fmt.Errorf("error: strict: %w", err)
	}
	ren, err := strictRun(alphaRename(src), strict.Options{}, nil)
	if err != nil {
		return fmt.Errorf("error: strict alpha: %w", err)
	}
	return diffSummaries("base", "alpha", base, ren, false)
}

func strictPredRename(m Meta, src string) error {
	mapping := renameMap(m.Preds)
	base, err := strictRun(src, strict.Options{}, mapping)
	if err != nil {
		return fmt.Errorf("error: strict: %w", err)
	}
	ren, err := strictRun(renamePreds(src, mapping), strict.Options{}, nil)
	if err != nil {
		return fmt.Errorf("error: strict renamed: %w", err)
	}
	return diffSummaries("base", "renamed", base, ren, false)
}

// diffEngineStats compares the engine counters two runs of one analysis
// must share when only an observer differs between them: the call
// pattern (subgoals entered), answer counts, the iteration counts of
// the producer/consumer fixpoint and the table space.
func diffEngineStats(aName, bName string, a, b engine.Stats) error {
	type cmp struct {
		name string
		a, b int
	}
	for _, c := range []cmp{
		{"subgoals", a.Subgoals, b.Subgoals},
		{"answers", a.Answers, b.Answers},
		{"resolutions", a.Resolutions, b.Resolutions},
		{"producer_runs", a.ProducerRuns, b.ProducerRuns},
		{"producer_passes", a.ProducerPasses, b.ProducerPasses},
		{"suspensions", a.Suspensions, b.Suspensions},
		{"resumptions", a.Resumptions, b.Resumptions},
		{"table_bytes", a.TableBytes, b.TableBytes},
		{"table_nodes", a.TableNodes, b.TableNodes},
	} {
		if c.a != c.b {
			return fmt.Errorf("mismatch: %s: %s=%d %s=%d", c.name, aName, c.a, bName, c.b)
		}
	}
	return nil
}

// provenanceSound: the justification recorder must be a pure observer —
// (a) enabling it changes no analysis result and no evaluation counter,
// and (b) every recorded justification re-checks: the producing clause's
// head unifies with the answer and the premise answers line up with the
// clause's tabled body calls, left to right, under the accumulated
// bindings. Runs on every shape (Prolog shapes through the groundness
// analyzer, FL shapes through strictness) and under both the clause
// interpreter and the closure compiler, whose recording paths differ.
func provenanceSound(m Meta, src string) error {
	for _, lm := range loadModes {
		if m.Shape.Lang() == randgen.LangFL {
			off, err := strict.Analyze(src, strict.Options{Mode: lm.mode})
			if err != nil {
				return fmt.Errorf("error: strict %s: %w", lm.name, err)
			}
			on, err := strict.Analyze(src, strict.Options{Mode: lm.mode, Provenance: true})
			if err != nil {
				return fmt.Errorf("error: strict %s prov: %w", lm.name, err)
			}
			if err := diffSummaries("prov-off", "prov-on", strictSummary(off, nil), strictSummary(on, nil), false); err != nil {
				return err
			}
			if err := diffEngineStats("prov-off", "prov-on", off.EngineStats, on.EngineStats); err != nil {
				return err
			}
			if err := recheckJusts(on.Machine); err != nil {
				return err
			}
			continue
		}
		off, err := prop.Analyze(src, prop.Options{Mode: lm.mode})
		if err != nil {
			return fmt.Errorf("error: prop %s: %w", lm.name, err)
		}
		on, err := prop.Analyze(src, prop.Options{Mode: lm.mode, Provenance: true})
		if err != nil {
			return fmt.Errorf("error: prop %s prov: %w", lm.name, err)
		}
		if err := diffSummaries("prov-off", "prov-on", propSummary(off, nil), propSummary(on, nil), false); err != nil {
			return err
		}
		if err := diffEngineStats("prov-off", "prov-on", off.EngineStats, on.EngineStats); err != nil {
			return err
		}
		if err := recheckJusts(on.Machine); err != nil {
			return err
		}
	}
	return nil
}

// flattenBody expands control constructs (',', ';', '->', negation) into
// the left-to-right sequence of leaf goals a derivation can traverse.
// For disjunctions both branches are emitted — the premise matcher scans
// forward with unification, so goals from the untaken branch are skipped.
func flattenBody(body []term.Term) []term.Term {
	var out []term.Term
	var walk func(t term.Term)
	walk = func(t term.Term) {
		c, ok := term.Deref(t).(*term.Compound)
		if !ok {
			out = append(out, t)
			return
		}
		switch {
		case (c.Functor == "," || c.Functor == ";" || c.Functor == "->") && len(c.Args) == 2:
			walk(c.Args[0])
			walk(c.Args[1])
		case (c.Functor == "\\+" || c.Functor == "not") && len(c.Args) == 1:
			walk(c.Args[0])
		default:
			out = append(out, t)
		}
	}
	for _, g := range body {
		walk(g)
	}
	return out
}

// recheckJusts replays every recorded justification against the program:
// the cited clause must exist, its (renamed) head must unify with the
// recorded answer, and each premise must unify — in order, under the
// bindings accumulated so far — with a body goal of the premise's
// predicate. Builtin body goals (iff/N in the abstract programs) consume
// no premises and are skipped by indicator.
func recheckJusts(m *engine.Machine) error {
	var bad error
	count := 0
	m.EachAnswer(func(ref engine.AnswerRef, pred string) {
		if bad != nil {
			return
		}
		j, ok := m.Justification(ref)
		if !ok {
			bad = fmt.Errorf("mismatch: %s answer s%da%d has no justification", pred, ref.Subgoal, ref.Answer)
			return
		}
		count++
		ans, ok := m.AnswerAt(ref)
		if !ok {
			bad = fmt.Errorf("mismatch: dangling answer ref s%da%d", ref.Subgoal, ref.Answer)
			return
		}
		cls := m.Pred(pred).Clauses
		if j.ClauseNth < 0 || j.ClauseNth >= len(cls) {
			bad = fmt.Errorf("mismatch: %s cites clause %d of %d", pred, j.ClauseNth, len(cls))
			return
		}
		cl := cls[j.ClauseNth]
		rn := map[*term.Var]*term.Var{}
		var tr term.Trail
		if !term.Unify(term.Rename(cl.Head, rn), term.Rename(ans, nil), &tr) {
			bad = fmt.Errorf("mismatch: %s clause %d head %v does not unify with answer %v",
				pred, j.ClauseNth, cl.Head, ans)
			return
		}
		if j.Truncated {
			return
		}
		goals := flattenBody(cl.Body)
		gi := 0
		for _, p := range j.Premises {
			pans, ok := m.AnswerAt(engine.AnswerRef{Subgoal: p.Subgoal, Answer: p.Answer})
			if !ok {
				bad = fmt.Errorf("mismatch: %s premise s%da%d unresolvable", pred, p.Subgoal, p.Answer)
				return
			}
			ppred, _, _ := m.JustSource().Answer(obs.AnsRef{Sub: p.Subgoal, Ans: p.Answer})
			matched := false
			for ; gi < len(goals); gi++ {
				ind, callable := term.Indicator(goals[gi])
				if !callable || ind != ppred {
					continue // builtin or other predicate: consumes no premise here
				}
				mark := tr.Mark()
				if term.Unify(term.Rename(goals[gi], rn), term.Rename(pans, nil), &tr) {
					matched = true
					gi++
					break
				}
				tr.Undo(mark)
			}
			if !matched {
				bad = fmt.Errorf("mismatch: %s clause %d: premise %s %v does not re-check against the body",
					pred, j.ClauseNth, ppred, pans)
				return
			}
		}
	})
	if bad != nil {
		return bad
	}
	if count == 0 {
		// An analyzed program always tables at least the entry
		// predicates; a run with zero recorded answers means the
		// recorder silently failed, not that the program was empty.
		if m.Stats().Answers > 0 {
			return fmt.Errorf("mismatch: %d answers but no justifications recorded", m.Stats().Answers)
		}
	}
	return nil
}

func strictEqReorder(m Meta, src string) error {
	base, err := strictRun(src, strict.Options{}, nil)
	if err != nil {
		return fmt.Errorf("error: strict: %w", err)
	}
	reord, err := strictRun(reorderClauses(src, m.Seed+4), strict.Options{}, nil)
	if err != nil {
		return fmt.Errorf("error: strict reordered: %w", err)
	}
	return diffSummaries("base", "eq-reordered", base, reord, false)
}
