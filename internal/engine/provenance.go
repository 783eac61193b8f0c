package engine

// Answer provenance: the engine half of the observability layer's
// justification support. With Machine.Provenance set, every distinct
// tabled answer records which clause first produced it and which tabled
// premise answers that derivation consumed — XSB-style justification
// (Swift & Warren), enough to reconstruct "why is this answer in the
// table" after the fact without re-running the evaluation.
//
// Mechanics. The machine keeps a premise stack of AnswerRefs along the
// current derivation path: solveTabled pushes the consumed answer's ref
// around its continuation, so at any point the stack lists every tabled
// answer the path has committed to. A producer activation marks the
// stack depth on entry (subgoal.provMark); when a body derivation
// reaches addAnswer, the segment above the mark is exactly the set of
// tabled answers this derivation consumed — including premises reached
// through non-tabled intermediate predicates, which justification
// skips over, as XSB's does. Only the first derivation of an answer is
// recorded (duplicates are filtered before recording), so every premise
// refers to an answer that existed before its consumer and the
// justification graph is acyclic by construction; the obs-side walker
// still guards against cycles defensively.
//
// Cost. Recording is opt-in and gated on one bool per hook site.
// Records are charged to Stats.ProvenanceBytes and bounded by
// Limits.MaxProvNodes: once the budget is spent, further answers keep
// an (index-aligned) record of their producing clause but drop their
// premise list, marked Truncated.

import (
	"fmt"

	"xlp/internal/obs"
	"xlp/internal/prolog"
	"xlp/internal/term"
)

// AnswerRef identifies one tabled answer by table coordinates: the
// subgoal's creation index and the answer's insertion index within it.
// Both orders are deterministic for a given program and evaluation
// mode, so refs are stable across identically-configured runs.
type AnswerRef struct {
	Subgoal int
	Answer  int
}

// Just is the recorded justification of one tabled answer: the clause
// whose body derivation first produced it, and the tabled premise
// answers that derivation consumed.
type Just struct {
	ClauseNth int        // index into the subgoal predicate's clause list
	Pos       prolog.Pos // clause source position (zero unless consulted from text)
	Truncated bool       // premises dropped: the provenance node budget was spent
	Premises  []AnswerRef
}

// Per-record byte charges for Stats.ProvenanceBytes: the record header
// and one premise ref. Like term.TrieNodeBytes these are model costs —
// stable across architectures — not measured allocator sizes.
const (
	justRecordBytes  = 48
	justPremiseBytes = 16
)

// recordJust captures the justification for the answer just added to
// sg: cl produced it, and the premise-stack segment above the
// activation mark is what its derivation consumed.
func (m *Machine) recordJust(sg *subgoal, cl *Clause) *Just {
	j := &Just{ClauseNth: cl.Nth, Pos: cl.Pos}
	prem := m.premises[sg.provMark:]
	if m.provNodes+1+len(prem) > m.Limits.maxProvNodes() {
		// Budget spent: keep the clause (the slice stays index-aligned
		// with the answer table) but drop the premises.
		j.Truncated = true
		m.provNodes++
		m.stats.ProvenanceBytes += justRecordBytes
		return j
	}
	j.Premises = append([]AnswerRef(nil), prem...)
	m.provNodes += 1 + len(prem)
	m.stats.ProvenanceBytes += justRecordBytes + justPremiseBytes*len(j.Premises)
	return j
}

// Justification returns the recorded justification for ref, if any.
// The boolean is false when ref is out of range or the answer was
// recorded with provenance disabled.
func (m *Machine) Justification(ref AnswerRef) (Just, bool) {
	sg, ok := m.subgoalAt(ref.Subgoal)
	if !ok || ref.Answer < 0 || ref.Answer >= len(sg.justs) || sg.justs[ref.Answer] == nil {
		return Just{}, false
	}
	return *sg.justs[ref.Answer], true
}

// AnswerAt returns the answer term behind ref, with fresh variables.
func (m *Machine) AnswerAt(ref AnswerRef) (term.Term, bool) {
	sg, ok := m.answerSubgoal(ref)
	if !ok {
		return nil, false
	}
	return sg.answer(ref.Answer), true
}

// EachAnswer calls fn for every recorded tabled answer — subgoal
// creation order, then answer insertion order (the coordinates AnswerRef
// uses) — with the owning predicate's indicator. Enumeration surface for
// provenance audits (the difftest provenance_sound oracle).
func (m *Machine) EachAnswer(fn func(ref AnswerRef, pred string)) {
	for _, sg := range m.subgoals {
		for i := range sg.numAnswers() {
			fn(AnswerRef{Subgoal: sg.idx, Answer: i}, sg.pred.Indicator)
		}
	}
}

func (m *Machine) subgoalAt(i int) (*subgoal, bool) {
	if i < 0 || i >= len(m.subgoals) {
		return nil, false
	}
	return m.subgoals[i], true
}

// answerSubgoal returns the subgoal whose table holds ref's answer.
func (m *Machine) answerSubgoal(ref AnswerRef) (*subgoal, bool) {
	sg, ok := m.subgoalAt(ref.Subgoal)
	if !ok || ref.Answer < 0 || ref.Answer >= sg.numAnswers() {
		return nil, false
	}
	return sg, true
}

// FindAnswers returns refs to every recorded answer that unifies with
// goal, scanning the subgoals of goal's predicate in creation order.
// It is a cold-path lookup for explanation surfaces, not evaluation:
// it does not create table entries or derive anything new.
func (m *Machine) FindAnswers(goal term.Term) []AnswerRef {
	name, args, ok := term.FunctorArity(goal)
	if !ok {
		return nil
	}
	ind := fmt.Sprintf("%s/%d", name, len(args))
	probe := term.Rename(term.Resolve(goal), nil)
	var out []AnswerRef
	for _, sg := range m.subgoals {
		if sg.pred.Indicator != ind {
			continue
		}
		for i := range sg.numAnswers() {
			mark := m.trail.Mark()
			if term.Unify(probe, sg.answer(i), &m.trail) {
				out = append(out, AnswerRef{sg.idx, i})
			}
			m.trail.Undo(mark)
		}
	}
	return out
}

// justSource adapts the machine's tables to obs.JustSource so the
// derivation builder can live in internal/obs without importing the
// engine (the dependency already points engine -> obs).
type justSource struct{ m *Machine }

// Answer renders the answer with term.Canonical, so a derivation's text
// does not depend on the process-global variable counter.
func (s justSource) Answer(ref obs.AnsRef) (pred, text string, ok bool) {
	sg, found := s.m.answerSubgoal(AnswerRef{Subgoal: ref.Sub, Answer: ref.Ans})
	if !found {
		return "", "", false
	}
	return sg.pred.Indicator, term.Canonical(sg.answer(ref.Ans)), true
}

func (s justSource) Just(ref obs.AnsRef) (clause int, pos string, truncated bool, premises []obs.AnsRef, ok bool) {
	j, found := s.m.Justification(AnswerRef{Subgoal: ref.Sub, Answer: ref.Ans})
	if !found {
		return 0, "", false, nil, false
	}
	if j.Pos.IsValid() {
		pos = j.Pos.String()
	}
	prem := make([]obs.AnsRef, len(j.Premises))
	for i, p := range j.Premises {
		prem[i] = obs.AnsRef{Sub: p.Subgoal, Ans: p.Answer}
	}
	return j.ClauseNth, pos, j.Truncated, prem, true
}

// JustSource returns the machine's tables as an obs.JustSource for use
// with obs.BuildDerivation.
func (m *Machine) JustSource() obs.JustSource { return justSource{m} }

// Explain builds the justification DAG for every recorded answer that
// unifies with goal (walker capped at maxNodes; <= 0 uses the obs
// default). The machine must have evaluated goal's predicate with
// Provenance enabled; with no matching answers the derivation has no
// roots, and with no recorded justifications it errors.
func (m *Machine) Explain(goal term.Term, maxNodes int) (*obs.Derivation, error) {
	if !m.Provenance {
		return nil, fmt.Errorf("engine: explain: provenance recording was not enabled")
	}
	roots := m.FindAnswers(goal)
	refs := make([]obs.AnsRef, len(roots))
	for i, r := range roots {
		refs[i] = obs.AnsRef{Sub: r.Subgoal, Ans: r.Answer}
	}
	return obs.BuildDerivation(m.JustSource(), term.Canonical(goal), refs, maxNodes), nil
}
