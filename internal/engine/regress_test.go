package engine

// Regression tests distilled from corpus workloads that exposed engine
// bugs during development.

import (
	"testing"
)

// Deep tabled call chains with interleaving SCCs: many mutually
// dependent predicates where a late answer reaches a region member
// whose clause pass ended long ago. The leader resumes that member's
// consumers while nested leaders, created by those resumptions,
// complete their own regions above it on the completion stack; the
// query must still see every answer (an early engine lost some to
// premature completion) and leave every table complete.
func TestFlushLoopSurvivesCompletionPops(t *testing.T) {
	src := `
		:- table a/2, b/2, c/2, d/2, e/2.
		base(1, 2). base(2, 3). base(3, 1). base(3, 4).
		a(X, Y) :- base(X, Y).
		a(X, Y) :- b(X, Z), base(Z, Y).
		b(X, Y) :- c(X, Y).
		b(X, Y) :- a(X, Z), c(Z, Y).
		c(X, Y) :- base(X, Y).
		c(X, Y) :- d(X, Z), e(Z, Y).
		d(X, Y) :- base(X, Y).
		d(X, Y) :- e(X, Z), a(Z, Y).
		e(X, Y) :- base(X, Y).
	`
	m := New()
	if err := m.Consult(src); err != nil {
		t.Fatal(err)
	}
	sols, err := m.Query("a(1, W)")
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 4 {
		t.Fatalf("a(1,W) solutions = %d, want 4 (reaches 1,2,3,4)", len(sols))
	}
	// All tables complete after the query.
	for _, d := range m.DumpTables("") {
		if !d.Complete {
			t.Fatalf("incomplete table for %v", d.Call)
		}
	}
}

// Differential check of the completion discipline: repeated queries with
// reset tables must be deterministic.
func TestRepeatedQueriesStable(t *testing.T) {
	src := `
		:- table p/2.
		f(a, b). f(b, c). f(c, a).
		p(X, Y) :- f(X, Y).
		p(X, Y) :- p(X, Z), p(Z, Y).
	`
	var first int
	for i := 0; i < 5; i++ {
		m := New()
		if err := m.Consult(src); err != nil {
			t.Fatal(err)
		}
		sols, err := m.Query("p(a, W)")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = len(sols)
			if first != 3 {
				t.Fatalf("p(a,W) = %d answers, want 3", first)
			}
		} else if len(sols) != first {
			t.Fatalf("run %d gave %d answers, first gave %d", i, len(sols), first)
		}
	}
}
