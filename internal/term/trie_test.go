package term

import (
	"fmt"
	"math/rand"
	"testing"
)

// genTerm builds a random term of bounded depth. vars is the pool of
// variables the term may draw from (sharing within a term is what makes
// variant classes interesting).
func genTerm(r *rand.Rand, depth int, vars []*Var) Term {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Atom(fmt.Sprintf("a%d", r.Intn(6)))
		case 1:
			return Int(r.Intn(10) - 5)
		default:
			return vars[r.Intn(len(vars))]
		}
	}
	switch r.Intn(5) {
	case 0:
		return Atom(fmt.Sprintf("a%d", r.Intn(6)))
	case 1:
		return Int(r.Intn(10) - 5)
	case 2:
		return vars[r.Intn(len(vars))]
	default:
		n := 1 + r.Intn(3)
		args := make([]Term, n)
		for i := range args {
			args[i] = genTerm(r, depth-1, vars)
		}
		return NewCompound(fmt.Sprintf("f%d", r.Intn(4)), args...)
	}
}

func freshVars(n int) []*Var {
	vs := make([]*Var, n)
	for i := range vs {
		vs[i] = NewVar(fmt.Sprintf("V%d", i))
	}
	return vs
}

// TestTrieVariantsShareLeaf: variant-equivalent terms (equal up to
// consistent renaming of variables) must reach the same leaf, and the
// second walk must allocate no nodes.
func TestTrieVariantsShareLeaf(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tr := NewTrie()
	for i := 0; i < 500; i++ {
		a := genTerm(r, 3, freshVars(3))
		b := Rename(a, nil) // fresh variables, same shape: a variant
		if !Variant(a, b) {
			t.Fatalf("Rename did not produce a variant of %v", a)
		}
		la, na := tr.Insert(a)
		lb, nb := tr.Insert(b)
		if la != lb {
			t.Fatalf("variants %v and %v reached different leaves", a, b)
		}
		if nb != 0 {
			t.Fatalf("re-inserting variant %v allocated %d nodes", b, nb)
		}
		_ = na
	}
}

// TestTrieMatchesCanonical is the core soundness/completeness property:
// two terms reach the same leaf iff their canonical strings are equal
// (leaf identity == Variant equivalence == Canonical equality).
func TestTrieMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := NewTrie()
	leafByCanon := map[string]*TrieNode{}
	canonByLeaf := map[*TrieNode]string{}
	for i := 0; i < 3000; i++ {
		u := genTerm(r, 4, freshVars(4))
		key := Canonical(u)
		leaf, _ := tr.Insert(u)
		if prev, ok := leafByCanon[key]; ok {
			if prev != leaf {
				t.Fatalf("variant class %q split across leaves (term %v)", key, u)
			}
		} else {
			leafByCanon[key] = leaf
		}
		if prevKey, ok := canonByLeaf[leaf]; ok {
			if prevKey != key {
				t.Fatalf("leaf collision: %q and %q (term %v)", prevKey, key, u)
			}
		} else {
			canonByLeaf[leaf] = key
		}
	}
	if len(leafByCanon) < 100 {
		t.Fatalf("generator too tame: only %d distinct classes", len(leafByCanon))
	}
}

// TestTrieInsertLookupRoundTrip: Lookup finds exactly the inserted
// variant classes, via any variant of the inserted term, and misses
// non-inserted ones.
func TestTrieInsertLookupRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tr := NewTrie()
	var inserted []Term
	for i := 0; i < 200; i++ {
		u := genTerm(r, 3, freshVars(3))
		leaf, _ := tr.Insert(u)
		leaf.SetValue(i)
		inserted = append(inserted, u)
	}
	for i, u := range inserted {
		leaf, ok := tr.Lookup(Rename(u, nil))
		if !ok {
			t.Fatalf("lookup lost inserted term %v", u)
		}
		if _, set := leaf.Value(); !set {
			t.Fatalf("leaf of %v has no value", u)
		}
		_ = i
	}
	// A term deeper than anything inserted cannot be present.
	probe := NewCompound("zz_unseen", Atom("x"), NewCompound("zz_unseen", Int(7)))
	if leaf, ok := tr.Lookup(probe); ok {
		if _, set := leaf.Value(); set {
			t.Fatalf("lookup fabricated a value for %v", probe)
		}
	}
}

// TestTrieBoundVarsWalkAsBindings: the walk must dereference bindings —
// a variable bound to a term spells that term, not a variable cell.
func TestTrieBoundVarsWalkAsBindings(t *testing.T) {
	tr := NewTrie()
	v := NewVar("X")
	var trail Trail
	trail.Bind(v, Atom("a"))
	bound := NewCompound("p", v)
	direct := NewCompound("p", Atom("a"))
	l1, _ := tr.Insert(bound)
	l2, n2 := tr.Insert(direct)
	if l1 != l2 || n2 != 0 {
		t.Fatalf("p(X){X=a} and p(a) reached different leaves")
	}
	trail.Undo(0)
	l3, _ := tr.Insert(bound) // now unbound: a different class
	if l3 == l1 {
		t.Fatalf("p(X) with X unbound conflated with p(a)")
	}
}

// TestTrieVarNumberingFirstOccurrence: variable cells use first-occurrence
// numbering, so p(X,Y,X) and p(Y,X,Y) are the same class while p(X,Y,Y)
// is not.
func TestTrieVarNumberingFirstOccurrence(t *testing.T) {
	tr := NewTrie()
	x, y := NewVar("X"), NewVar("Y")
	l1, _ := tr.Insert(NewCompound("p", x, y, x))
	l2, n2 := tr.Insert(NewCompound("p", y, x, y))
	if l1 != l2 || n2 != 0 {
		t.Fatalf("p(X,Y,X) and p(Y,X,Y) are variants but split leaves")
	}
	l3, _ := tr.Insert(NewCompound("p", x, y, y))
	if l3 == l1 {
		t.Fatalf("p(X,Y,Y) conflated with p(X,Y,X)")
	}
}

// TestTrieNodesAccounting: node counts grow exactly by the per-insert
// newNodes deltas and Bytes follows at TrieNodeBytes each.
func TestTrieNodesAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	tr := NewTrie()
	total := 0
	for i := 0; i < 300; i++ {
		_, n := tr.Insert(genTerm(r, 3, freshVars(3)))
		total += n
	}
	if tr.Nodes() != total {
		t.Fatalf("Nodes() = %d, sum of deltas = %d", tr.Nodes(), total)
	}
	if tr.Bytes() != total*TrieNodeBytes {
		t.Fatalf("Bytes() = %d, want %d", tr.Bytes(), total*TrieNodeBytes)
	}
}

// TestTrieSpillFanout: a node whose fanout crosses spillFanout keeps
// resolving all earlier and later children.
func TestTrieSpillFanout(t *testing.T) {
	tr := NewTrie()
	leaves := map[int]*TrieNode{}
	for i := 0; i < 3*spillFanout; i++ {
		leaf, n := tr.Insert(NewCompound("p", Int(i)))
		if n == 0 {
			t.Fatalf("p(%d) allocated no nodes", i)
		}
		leaves[i] = leaf
	}
	for i := 0; i < 3*spillFanout; i++ {
		leaf, ok := tr.Lookup(NewCompound("p", Int(i)))
		if !ok || leaf != leaves[i] {
			t.Fatalf("p(%d) lost after spill", i)
		}
	}
}

// TestTrieTermRoundTrip: a leaf spells back a variant of the term
// whose walk ended there, with variables numbered as before.
func TestTrieTermRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	tr := NewTrie()
	for i := 0; i < 2000; i++ {
		u := genTerm(r, 4, freshVars(4))
		leaf, _ := tr.Insert(u)
		back := tr.Term(leaf)
		if Canonical(back) != Canonical(u) {
			t.Fatalf("leaf of %v spells %v", u, back)
		}
		if l2, n := tr.Insert(back); l2 != leaf || n != 0 {
			t.Fatalf("rebuilt %v reached another leaf", back)
		}
	}
}

// generalize returns t with some subterms replaced by variables from
// vars, so that t is often an instance of the result: the shape of a
// tabled call against one of its answers.
func generalize(r *rand.Rand, t Term, vars []*Var) Term {
	if r.Intn(4) == 0 {
		return vars[r.Intn(len(vars))]
	}
	c, ok := Deref(t).(*Compound)
	if !ok {
		return t
	}
	args := make([]Term, len(c.Args))
	for i, a := range c.Args {
		args[i] = generalize(r, a, vars)
	}
	return &Compound{Functor: c.Functor, Args: args}
}

// unifyOCClash is UnifyOC that also reports whether it failed on the
// occurs check. Where it fails on a clash instead, plain Unify fails
// too: up to the clash it made the same bindings. Where the occurs
// check fails first, plain Unify may build a cyclic term.
func unifyOCClash(a, b Term, tr *Trail) (ok, occurs bool) {
	a, b = Deref(a), Deref(b)
	if a == b {
		return true, false
	}
	if v, isVar := a.(*Var); isVar {
		if Occurs(v, b) {
			return false, true
		}
		tr.Bind(v, b)
		return true, false
	}
	if v, isVar := b.(*Var); isVar {
		if Occurs(v, a) {
			return false, true
		}
		tr.Bind(v, a)
		return true, false
	}
	ac, aok := a.(*Compound)
	bc, bok := b.(*Compound)
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

// checkTrieUnify holds Trie.Unify to Unify(goal, Rename(stored)) on one
// pair: the same verdict, and on success a variant resolved goal. Pairs
// that unify only without the occurs check are skipped (checked false).
func checkTrieUnify(t *testing.T, goal, stored Term) (checked, unified bool) {
	t.Helper()
	var tr0, tr1, tr2 Trail
	if ok, occurs := unifyOCClash(Rename(goal, nil), Rename(stored, nil), &tr0); !ok && occurs {
		return false, false
	}
	plain := Rename(goal, nil)
	want := Unify(plain, Rename(stored, nil), &tr1)
	trie := NewTrie()
	leaf, _ := trie.Insert(stored)
	viaTrie := Rename(goal, nil)
	if got := trie.Unify(viaTrie, leaf, &tr2); got != want {
		t.Fatalf("Trie.Unify(%v, %v) = %v, Unify = %v", goal, stored, got, want)
	}
	if want && Canonical(viaTrie) != Canonical(plain) {
		t.Fatalf("%v against %v: trie leaves %s, Unify leaves %s",
			goal, stored, Canonical(viaTrie), Canonical(plain))
	}
	return true, want
}

// TestTrieUnifyMatchesRenameUnify: unifying against a leaf's path is
// unifying against a renamed copy of the stored term. Half the goals
// generalize their stored term (they mostly succeed), half are drawn
// independently (they mostly clash).
func TestTrieUnifyMatchesRenameUnify(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	verdicts := map[bool]int{}
	for i := 0; i < 5000; i++ {
		stored := genTerm(r, 3, freshVars(3))
		var goal Term
		if i%2 == 0 {
			goal = generalize(r, stored, freshVars(3))
		} else {
			goal = genTerm(r, 3, freshVars(3))
		}
		if checked, unified := checkTrieUnify(t, goal, stored); checked {
			verdicts[unified]++
		}
	}
	t.Logf("%d pairs unified, %d failed", verdicts[true], verdicts[false])
	if verdicts[true] < 1000 || verdicts[false] < 1000 {
		t.Fatal("generator too tame")
	}
}

// TestTrieUnifyRepeatedVars: a stored variable that occurs twice
// constrains the goal at both places.
func TestTrieUnifyRepeatedVars(t *testing.T) {
	x, y := NewVar("X"), NewVar("Y")
	for _, c := range []struct {
		goal, stored Term
		want         bool
	}{
		{NewCompound("f", Atom("a"), Atom("b")), NewCompound("f", x, x), false},
		{NewCompound("f", Atom("a"), Atom("a")), NewCompound("f", x, x), true},
		{NewCompound("f", NewVar("A"), Atom("b")), NewCompound("f", x, x), true},
		{NewCompound("f", NewCompound("g", Atom("a")), NewCompound("g", Atom("b"))), NewCompound("f", x, x), false},
		{NewCompound("f", NewVar("A"), NewVar("B"), Atom("c")), NewCompound("f", x, NewCompound("g", x), y), true},
	} {
		checkTrieUnify(t, c.goal, c.stored)
		trie := NewTrie()
		leaf, _ := trie.Insert(c.stored)
		var trail Trail
		if got := trie.Unify(Rename(c.goal, nil), leaf, &trail); got != c.want {
			t.Errorf("%v against stored %v: %v, want %v", c.goal, c.stored, got, c.want)
		}
	}
}

// TestTrieUnifyGroundAtomsAllocFree: an open call matched against a
// ground answer of atoms binds preboxed atom terms and allocates
// nothing once the trie's scratch and the trail have grown.
func TestTrieUnifyGroundAtomsAllocFree(t *testing.T) {
	tr := NewTrie()
	leaf, _ := tr.Insert(NewCompound("p", Atom("a"), Atom("b"), Atom("a")))
	goal := NewCompound("p", NewVar("X"), NewVar("Y"), NewVar("Z"))
	var trail Trail
	allocs := testing.AllocsPerRun(100, func() {
		if !tr.Unify(goal, leaf, &trail) {
			t.Fatal("open call did not match its answer")
		}
		trail.Undo(0)
	})
	if allocs != 0 {
		t.Fatalf("Trie.Unify allocated %.1f times per call", allocs)
	}
}

// TestInternRoundTrip: interning is stable and Name inverts it.
func TestInternRoundTrip(t *testing.T) {
	s1 := Intern("trie_test_atom_α")
	s2 := Intern("trie_test_atom_α")
	if s1 != s2 {
		t.Fatalf("interning the same name twice gave %d and %d", s1, s2)
	}
	if s1.Name() != "trie_test_atom_α" {
		t.Fatalf("Name() = %q", s1.Name())
	}
	if InternedSyms() <= 0 {
		t.Fatalf("InternedSyms() = %d", InternedSyms())
	}
}
