package prolog

import (
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/randgen"
	"xlp/internal/term"
)

// Fuzz targets for the reader and unifier. Beyond not panicking, each
// asserts a semantic property: printing is parse-stable (a second
// write is a fixpoint of parse∘write), and unification is symmetric,
// solution-producing, and fully undone by the trail.

func addCorpusSeeds(f *testing.F, fl bool) {
	for _, p := range corpus.LogicPrograms() {
		f.Add(p.Source)
	}
	if fl {
		for _, p := range corpus.FuncPrograms() {
			f.Add(p.Source)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, shape := range randgen.Shapes() {
			g := randgen.Generate(randgen.Config{Shape: shape, Seed: seed})
			if g.Lang == randgen.LangProlog || fl {
				f.Add(g.Source)
			}
		}
	}
}

func FuzzParseProlog(f *testing.F) {
	addCorpusSeeds(f, false)
	f.Add(":- table p/1.\np(a).\np(X) :- p(X), \\+ q(X), X = f(Y), Y is 1 + 2.")
	f.Fuzz(func(t *testing.T, src string) {
		clauses, err := ParseProgram(src)
		if err != nil {
			return
		}
		// Printing the parse must itself parse, to the same number of
		// clauses, and printing that re-parse must be a fixpoint.
		var sb strings.Builder
		for _, c := range clauses {
			sb.WriteString(WriteClause(c))
			sb.WriteByte('\n')
		}
		printed := sb.String()
		back, err := ParseProgram(printed)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\n%s", err, printed)
		}
		if len(back) != len(clauses) {
			t.Fatalf("clause count changed %d -> %d:\n%s", len(clauses), len(back), printed)
		}
		for i := range back {
			if !term.Variant(clauses[i], back[i]) {
				t.Fatalf("re-parse changed clause %d: %q vs %q",
					i, WriteClause(clauses[i]), WriteClause(back[i]))
			}
		}
	})
}

func FuzzReadTermRoundTrip(f *testing.F) {
	for _, s := range []string{
		"foo", "f(X, Y)", "[1, 2 | T]", "A = B + C * 2", "(a , b ; c -> d)",
		"\\+ p(X)", "-(1)", "'quoted atom'", "p((a, b))", "f(-1, [])",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tm, _, err := ParseTerm(src)
		if err != nil {
			return
		}
		out := WriteTerm(tm)
		back, _, err := ParseTerm(out)
		if err != nil {
			t.Fatalf("%q printed as unparseable %q: %v", src, out, err)
		}
		if !term.Variant(tm, back) {
			t.Fatalf("round trip changed the term: %q -> %q (%v vs %v)", src, out, tm, back)
		}
		// Variables print with fresh ids each time, so exact string
		// stability is only promised for ground terms.
		if term.IsGround(tm) {
			if again := WriteTerm(back); again != out {
				t.Fatalf("write not a fixpoint: %q -> %q", out, again)
			}
		}
	})
}

// FuzzTrieInsertLookup checks the term trie against Canonical on
// arbitrary parsed terms: trie-leaf identity must coincide exactly with
// canonical-string equality (the variant relation), inserts must be
// idempotent, and lookups must find exactly the inserted classes.
func FuzzTrieInsertLookup(f *testing.F) {
	for _, s := range []string{
		"foo", "f(X, Y)", "f(X, X)", "[1, 2 | T]", "[a, [b, c], -3]",
		"g(X, f(X, Y), X)", "'quoted atom'", "p((a, b))", "f(-1, [])",
		"s(s(s(z)))", "pair([H | T], H)",
	} {
		f.Add(s, s)
	}
	// Corpus-derived seeds: every clause of the benchmark programs.
	for _, p := range corpus.LogicPrograms() {
		clauses, err := ParseProgram(p.Source)
		if err != nil {
			continue
		}
		for i := 0; i+1 < len(clauses); i += 7 {
			f.Add(WriteClause(clauses[i]), WriteClause(clauses[i+1]))
		}
	}
	f.Fuzz(func(t *testing.T, aSrc, bSrc string) {
		a, _, errA := ParseTerm(aSrc)
		b, _, errB := ParseTerm(bSrc)
		if errA != nil || errB != nil {
			return
		}
		tr := term.NewTrie()
		la, _ := tr.Insert(a)
		la.SetValue("a")
		lb, nb := tr.Insert(b)
		sameCanon := term.Canonical(a) == term.Canonical(b)
		if (la == lb) != sameCanon {
			t.Fatalf("leaf identity %v but canonical equality %v: %q vs %q",
				la == lb, sameCanon, aSrc, bSrc)
		}
		if sameCanon && nb != 0 {
			t.Fatalf("inserting a variant of %q allocated %d nodes", aSrc, nb)
		}
		// Lookup must find both inserted terms via fresh variants.
		if leaf, ok := tr.Lookup(term.Rename(a, nil)); !ok || leaf != la {
			t.Fatalf("lookup of inserted %q failed", aSrc)
		}
		if leaf, ok := tr.Lookup(term.Rename(b, nil)); !ok || leaf != lb {
			t.Fatalf("lookup of inserted %q failed", bSrc)
		}
		// Each leaf spells its term back.
		for _, c := range []struct {
			t    term.Term
			leaf *term.TrieNode
		}{{a, la}, {b, lb}} {
			if got, want := term.Canonical(tr.Term(c.leaf)), term.Canonical(c.t); got != want {
				t.Fatalf("leaf of %s spells %s", want, got)
			}
		}
		// Re-inserting both terms is a no-op on the node count.
		before := tr.Nodes()
		tr.Insert(a)
		tr.Insert(b)
		if tr.Nodes() != before {
			t.Fatalf("re-insert allocated nodes: %d -> %d", before, tr.Nodes())
		}
	})
}

// FuzzTrieUnify: unifying a goal against a trie leaf's path gives the
// verdict of Unify(goal, Rename(stored)), and on success a variant of
// its resolved goal. Pairs that unify only without the occurs check
// are skipped, as in FuzzUnify.
func FuzzTrieUnify(f *testing.F) {
	for _, p := range [][2]string{
		{"f(X, X)", "f(a, b)"},
		{"f(a, b)", "f(X, X)"},
		{"p(A, B)", "p(X, f(X))"},
		{"p(A, g(A), B)", "p(X, Y, Y)"},
		{"[H | T]", "[1, 2 | R]"},
		{"s(s(X))", "s(Y)"},
		{"p(A, B, c)", "p(q(X, 1), X, Y)"},
	} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, goalSrc, storedSrc string) {
		parse := func() (term.Term, term.Term, bool) {
			g, _, errG := ParseTerm(goalSrc)
			s, _, errS := ParseTerm(storedSrc)
			return g, s, errG == nil && errS == nil
		}
		goal, stored, ok := parse()
		if !ok {
			return
		}
		var tr0 term.Trail
		if ok, occurs := unifyOCClash(goal, stored, &tr0); !ok && occurs {
			return
		}
		plain, renamed, _ := parse()
		var tr1 term.Trail
		want := term.Unify(plain, renamed, &tr1)
		viaTrie, stored2, _ := parse()
		trie := term.NewTrie()
		leaf, _ := trie.Insert(stored2)
		var tr2 term.Trail
		if got := trie.Unify(viaTrie, leaf, &tr2); got != want {
			t.Fatalf("Trie.Unify(%q, %q) = %v, Unify = %v", goalSrc, storedSrc, got, want)
		}
		if want && term.Canonical(viaTrie) != term.Canonical(plain) {
			t.Fatalf("%q against %q: trie leaves %s, Unify leaves %s",
				goalSrc, storedSrc, term.Canonical(viaTrie), term.Canonical(plain))
		}
	})
}

// unifyOCClash is UnifyOC that also reports whether it failed on the
// occurs check. Where it fails on a clash instead, plain Unify fails
// too: up to the clash it made the same bindings. Where the occurs
// check fails first, plain Unify may build a cyclic term.
func unifyOCClash(a, b term.Term, tr *term.Trail) (ok, occurs bool) {
	a, b = term.Deref(a), term.Deref(b)
	if a == b {
		return true, false
	}
	if v, isVar := a.(*term.Var); isVar {
		if term.Occurs(v, b) {
			return false, true
		}
		tr.Bind(v, b)
		return true, false
	}
	if v, isVar := b.(*term.Var); isVar {
		if term.Occurs(v, a) {
			return false, true
		}
		tr.Bind(v, a)
		return true, false
	}
	ac, aok := a.(*term.Compound)
	bc, bok := b.(*term.Compound)
	if !aok || !bok || ac.Functor != bc.Functor || len(ac.Args) != len(bc.Args) {
		return false, false
	}
	for i := range ac.Args {
		if ok, occurs := unifyOCClash(ac.Args[i], bc.Args[i], tr); !ok {
			return false, occurs
		}
	}
	return true, false
}

func FuzzUnify(f *testing.F) {
	pairs := [][2]string{
		{"f(X, b)", "f(a, Y)"},
		{"X", "f(X)"},
		{"[H | T]", "[1, 2, 3]"},
		{"g(X, X)", "g(Y, f(Y))"},
		{"p(A, B, A)", "p(B, c, C)"},
		{"s(s(z))", "s(X)"},
	}
	for _, p := range pairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, aSrc, bSrc string) {
		parse := func() (term.Term, term.Term, bool) {
			a, _, errA := ParseTerm(aSrc)
			b, _, errB := ParseTerm(bSrc)
			return a, b, errA == nil && errB == nil
		}
		a, b, ok := parse()
		if !ok {
			return
		}
		// Occurs-check unification is used for every property below:
		// plain Unify may build rational (cyclic) terms on which Resolve
		// and Canonical do not terminate.
		var tr term.Trail
		mark := tr.Mark()
		before := term.Canonical(a) + "~" + term.Canonical(b)
		if term.UnifyOC(a, b, &tr) {
			// A solution: both sides resolve to the same term.
			ra, rb := term.Resolve(a), term.Resolve(b)
			if term.Canonical(ra) != term.Canonical(rb) {
				t.Fatalf("unified but unequal: %v vs %v", ra, rb)
			}
			// Plain unification must succeed whenever the occurs-check
			// version does (on fresh copies).
			a2, b2, _ := parse()
			var tr2 term.Trail
			if !term.Unify(a2, b2, &tr2) {
				t.Fatalf("UnifyOC succeeded but Unify failed: %q ~ %q", aSrc, bSrc)
			}
		}
		tr.Undo(mark)
		if after := term.Canonical(a) + "~" + term.Canonical(b); after != before {
			t.Fatalf("trail undo did not restore: %q -> %q", before, after)
		}
		// Symmetry, on fresh copies.
		a3, b3, _ := parse()
		a4, b4, _ := parse()
		var tr3, tr4 term.Trail
		if term.UnifyOC(a3, b3, &tr3) != term.UnifyOC(b4, a4, &tr4) {
			t.Fatalf("unification not symmetric: %q ~ %q", aSrc, bSrc)
		}
	})
}
