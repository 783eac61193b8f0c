package engine

import (
	"strings"
	"testing"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

const provProg = `
:- table edge/2.
:- table path/2.
edge(a, b).
edge(b, c).
edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
`

func provMachine(t *testing.T, mode LoadMode) *Machine {
	t.Helper()
	m := New()
	m.Mode = mode
	m.Provenance = true
	if err := m.Consult(provProg); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProvenanceRecordsEveryAnswer(t *testing.T) {
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		m := provMachine(t, mode)
		sols := q(t, m, "path(a, X)")
		if len(sols) != 3 {
			t.Fatalf("mode=%v: path(a,X) = %v", mode, sols)
		}
		checked := 0
		for si, sg := range m.subgoals {
			if len(sg.justs) != sg.numAnswers() {
				t.Fatalf("mode=%v: %v: %d answers, %d justs",
					mode, sg.goal, sg.numAnswers(), len(sg.justs))
			}
			for ai := range sg.numAnswers() {
				j, ok := m.Justification(AnswerRef{Subgoal: si, Answer: ai})
				if !ok {
					t.Fatalf("no justification for s%da%d", si, ai)
				}
				if j.ClauseNth < 0 || j.ClauseNth >= len(sg.pred.Clauses) {
					t.Fatalf("clause index %d out of range for %s", j.ClauseNth, sg.pred.Indicator)
				}
				if !j.Pos.IsValid() {
					t.Fatalf("consulted clause lost its position: %+v", j)
				}
				for _, p := range j.Premises {
					if _, ok := m.AnswerAt(p); !ok {
						t.Fatalf("dangling premise %+v in s%da%d", p, si, ai)
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("mode=%v: no answers recorded", mode)
		}
		if m.Stats().ProvenanceBytes == 0 {
			t.Fatalf("mode=%v: ProvenanceBytes not charged", mode)
		}
	}
}

// TestProvenancePremisesRecheck re-derives each justification by hand:
// renaming the recorded clause, unifying its head with the answer, and
// unifying its body's tabled goals with the recorded premise answers in
// order. This is the strong form of the difftest provenance_sound
// oracle, exercised here on a program whose derivations are known.
func TestProvenancePremisesRecheck(t *testing.T) {
	m := provMachine(t, LoadDynamic)
	q(t, m, "path(a, X)")
	for si, sg := range m.subgoals {
		for ai := range sg.numAnswers() {
			ans := sg.answer(ai)
			j, _ := m.Justification(AnswerRef{Subgoal: si, Answer: ai})
			cl := sg.pred.Clauses[j.ClauseNth]
			head, body := renameClause(cl)
			mark := m.trail.Mark()
			if !term.Unify(head, ans, &m.trail) {
				t.Fatalf("clause %d head does not cover answer %v", j.ClauseNth, ans)
			}
			// Each tabled body goal must consume the next premise.
			pi := 0
			for _, g := range body {
				name, args, _ := term.FunctorArity(g)
				if pi >= len(j.Premises) {
					break
				}
				prem, _ := m.AnswerAt(j.Premises[pi])
				pname, pargs, _ := term.FunctorArity(prem)
				if name != pname || len(args) != len(pargs) {
					continue // non-tabled or non-matching goal
				}
				if !term.Unify(g, term.Rename(prem, nil), &m.trail) {
					t.Fatalf("premise %v does not unify with body goal %v of clause %d",
						prem, g, j.ClauseNth)
				}
				pi++
			}
			if pi != len(j.Premises) {
				t.Fatalf("answer %v: consumed %d of %d premises", ans, pi, len(j.Premises))
			}
			m.trail.Undo(mark)
		}
	}
}

// TestProvenanceBackendsAgree checks that the interpreted and
// closure-compiled producers record byte-identical justifications.
func TestProvenanceBackendsAgree(t *testing.T) {
	snapshot := func(mode LoadMode) string {
		m := New()
		m.Mode = mode
		m.Provenance = true
		if err := m.Consult(provProg); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Query("path(a, X)"); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for si, sg := range m.subgoals {
			for ai := range sg.numAnswers() {
				j, _ := m.Justification(AnswerRef{Subgoal: si, Answer: ai})
				sb.WriteString(term.Canonical(sg.answer(ai)))
				sb.WriteString(" <- ")
				sb.WriteString(sg.pred.Indicator)
				sb.WriteString(j.Pos.String())
				for _, p := range j.Premises {
					prem, _ := m.AnswerAt(p)
					sb.WriteString(" ")
					sb.WriteString(term.Canonical(prem))
				}
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	if a, b := snapshot(LoadDynamic), snapshot(ModeClosure); a != b {
		t.Fatalf("justifications differ between backends:\ninterpreted:\n%s\nclosure:\n%s", a, b)
	}
}

func TestProvenanceBudgetTruncates(t *testing.T) {
	m := New()
	m.Provenance = true
	m.Limits.MaxProvNodes = 3
	if err := m.Consult(provProg); err != nil {
		t.Fatal(err)
	}
	q(t, m, "path(a, X)")
	truncated := 0
	for si, sg := range m.subgoals {
		for ai := range sg.numAnswers() {
			j, ok := m.Justification(AnswerRef{Subgoal: si, Answer: ai})
			if !ok {
				t.Fatalf("budget must keep records index-aligned")
			}
			if j.Truncated {
				if len(j.Premises) != 0 {
					t.Fatalf("truncated record kept premises: %+v", j)
				}
				truncated++
			}
		}
	}
	if truncated == 0 {
		t.Fatal("node budget of 3 never truncated")
	}
}

func TestProvenanceOffRecordsNothing(t *testing.T) {
	m := New()
	if err := m.Consult(provProg); err != nil {
		t.Fatal(err)
	}
	q(t, m, "path(a, X)")
	if _, ok := m.Justification(AnswerRef{Subgoal: 0, Answer: 0}); ok {
		t.Fatal("justification recorded with provenance off")
	}
	if m.Stats().ProvenanceBytes != 0 {
		t.Fatal("ProvenanceBytes charged with provenance off")
	}
}

func TestExplainBuildsDerivation(t *testing.T) {
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		m := New()
		m.Mode = mode
		m.Provenance = true
		if err := m.Consult(provProg); err != nil {
			t.Fatal(err)
		}
		q(t, m, "path(a, X)")
		goal, _, err := prolog.ParseTerm("path(a, d)")
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Explain(goal, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Roots) != 1 {
			t.Fatalf("mode=%v: expected one root for path(a,d), got %d", mode, len(d.Roots))
		}
		// path(a,d) <- edge(a,b), path(b,d) <- edge(b,c), path(c,d) <- edge(c,d):
		// 3 path answers and 3 edge answers reachable.
		if len(d.Nodes) != 6 {
			t.Fatalf("mode=%v: expected 6 reachable nodes, got %d: %+v", mode, len(d.Nodes), d.Nodes)
		}
		var text, dot strings.Builder
		if err := d.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), "edge(c,d)") && !strings.Contains(text.String(), "edge(c, d)") {
			t.Fatalf("text tree missing leaf premise:\n%s", text.String())
		}
		if err := d.WriteDOT(&dot); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(dot.String(), "digraph derivation {") {
			t.Fatalf("bad DOT output:\n%s", dot.String())
		}
	}
}

// TestProvenanceAnswersUnchanged is the in-package form of the
// difftest oracle's half (a): recording must not change what is
// derived.
func TestProvenanceAnswersUnchanged(t *testing.T) {
	run := func(prov bool) string {
		m := New()
		m.Provenance = prov
		if err := m.Consult(provProg); err != nil {
			t.Fatal(err)
		}
		q(t, m, "path(X, Y)")
		var sb strings.Builder
		for _, d := range m.DumpTables("") {
			sb.WriteString(term.Canonical(d.Call))
			sb.WriteByte('\n')
			for _, a := range d.Answers {
				sb.WriteString("  ")
				sb.WriteString(term.Canonical(a))
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	if on, off := run(true), run(false); on != off {
		t.Fatalf("answer tables differ:\non:\n%s\noff:\n%s", on, off)
	}
}
