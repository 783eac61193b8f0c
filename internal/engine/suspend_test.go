package engine

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"xlp/internal/term"
)

// sortedAnswers consults src under mode and returns the sorted canonical
// answers of goal, or the evaluation error.
func sortedAnswers(t *testing.T, mode LoadMode, src, goal string) ([]string, error) {
	t.Helper()
	m := New()
	m.Mode = mode
	if err := m.Consult(src); err != nil {
		t.Fatal(err)
	}
	sols, err := m.Query(goal)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = term.Canonical(s)
	}
	sort.Strings(out)
	return out, nil
}

// TestNonResumableContexts pins the tabled calls whose continuation
// cannot be suspended — under \+, in an if-then-else condition or
// once/1, inside a collecting builtin, and ahead of a cut — under both
// clause backends. A call whose callee can complete on its own gets the
// same answers as ever; one whose callee waits on a running producer
// fails with ErrNonResumable instead of answering from a partial table.
func TestNonResumableContexts(t *testing.T) {
	cases := []struct {
		name, src, goal string
		want            string // sorted answers joined by " "; "" expects ErrNonResumable
	}{
		{"negation/stratified", `
			:- table p/1, q/1.
			r(1). r(2). r(3).
			q(2).
			p(X) :- r(X), \+ q(X).`, "p(X)", "p(1) p(3)"},
		{"negation/unstratified", `
			:- table p/0, q/0.
			p :- \+ q.
			q :- \+ p.`, "p", ""},
		{"ite/complete-condition", `
			:- table p/1, q/1.
			q(1).
			p(X) :- (q(1) -> X = yes ; X = no).`, "p(X)", "p(yes)"},
		{"ite/incomplete-condition", `
			:- table p/1.
			p(a).
			p(X) :- (p(a) -> X = b ; X = c).`, "p(X)", ""},
		{"once/incomplete", `
			:- table p/1.
			p(1).
			p(X) :- once(p(Y)), Y < 3, X is Y + 1.`, "p(X)", ""},
		{"findall/complete", `
			:- table p/1, q/1.
			q(1). q(2).
			p(N) :- findall(X, q(X), L), length(L, N).`, "p(N)", "p(2)"},
		{"findall/incomplete", `
			:- table p/1.
			p(0).
			p(N) :- findall(X, p(X), L), length(L, N).`, "p(N)", ""},
		{"cut/complete-callee", `
			:- table p/1, e/1.
			e(1). e(2).
			first(X) :- e(X), !.
			p(X) :- first(X).`, "p(X)", "p(1)"},
		{"cut/incomplete-callee", `
			:- table p/1.
			p(1). p(2).
			p(X) :- first(Y), X = f(Y).
			first(Y) :- p(Y), !.`, "p(X)", ""},
		{"cut/scope-ends-at-body-exit", `
			:- table s/1.
			s(0).
			s(X) :- pick, s(Y), Y < 3, X is Y + 1.
			pick :- !.`, "s(X)", "s(0) s(1) s(2) s(3)"},
	}
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		for _, c := range cases {
			t.Run(c.name+"/"+map[LoadMode]string{LoadDynamic: "interp", ModeClosure: "closure"}[mode], func(t *testing.T) {
				got, err := sortedAnswers(t, mode, c.src, c.goal)
				if c.want == "" {
					if !errors.Is(err, ErrNonResumable) {
						t.Fatalf("got %v, %v; want ErrNonResumable", got, err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if s := strings.Join(got, " "); s != c.want {
					t.Fatalf("answers %q, want %q", s, c.want)
				}
			})
		}
	}
}

// TestSuspendResume checks the scheduler's bookkeeping on a cycle of
// subgoals (right recursion over a cyclic graph: reach(a,_) calls
// reach(b,_) calls reach(c,_) calls reach(a,_) again): one clause pass
// per subgoal, consumers saved and fed later answers, every table
// complete, and no consumer record outliving its region.
func TestSuspendResume(t *testing.T) {
	src := `
		:- table reach/2.
		edge(a, b). edge(b, c). edge(c, a). edge(c, d).
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
	`
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		m := New()
		m.Mode = mode
		if err := m.Consult(src); err != nil {
			t.Fatal(err)
		}
		sols, err := m.Query("reach(a, Y)")
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 4 {
			t.Fatalf("mode %d: %d reach answers, want 4", mode, len(sols))
		}
		st := m.Stats()
		if st.ProducerPasses != st.Subgoals || st.ProducerRuns != st.Subgoals {
			t.Errorf("mode %d: %d runs, %d passes over %d subgoals", mode, st.ProducerRuns, st.ProducerPasses, st.Subgoals)
		}
		if st.Suspensions == 0 || st.Resumptions == 0 {
			t.Errorf("mode %d: the cycle saved %d consumers, resumed %d answers", mode, st.Suspensions, st.Resumptions)
		}
		for _, sg := range m.subgoals {
			if !sg.complete || sg.consumers != nil {
				t.Errorf("mode %d: %v complete=%v with %d consumer records", mode, sg.goal, sg.complete, len(sg.consumers))
			}
		}
		if len(m.stack) != 0 || len(m.complStack) != 0 {
			t.Errorf("mode %d: scheduler stacks not empty: %d producers, %d incomplete", mode, len(m.stack), len(m.complStack))
		}
	}
}

// TestLeaderDefersToOuterDependency covers a region whose resumption
// discovers a dependency below its leader: q's region looks closed when
// its clause pass ends, but a later answer of r sends a resumed q
// derivation into p, which is still running. q must not complete until
// p's region does, or the answers p feeds back would be lost.
func TestLeaderDefersToOuterDependency(t *testing.T) {
	src := `
		:- table p/1, q/1, r/1.
		p(X) :- q(X).
		p(1).
		q(X) :- r(Y), step(Y, X).
		r(0).
		r(X) :- q(X).
		step(0, 5).
		step(5, Z) :- p(Z).
	`
	for _, mode := range []LoadMode{LoadDynamic, ModeClosure} {
		got, err := sortedAnswers(t, mode, src, "p(X)")
		if err != nil {
			t.Fatal(err)
		}
		if s := strings.Join(got, " "); s != "p(1) p(5)" {
			t.Fatalf("mode %d: answers %q, want %q", mode, s, "p(1) p(5)")
		}
	}
}
