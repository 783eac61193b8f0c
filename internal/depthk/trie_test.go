package depthk

import (
	"math/rand"
	"testing"

	"xlp/internal/prolog"
	"xlp/internal/term"
)

// The engine stores depth-k answers and matches calls against them on
// the answer trie (term.Trie.InsertDepth and AbstractUnify). The tests
// here hold that trie path to the term-level definitions it replaces:
// the answer abstraction spelled as terms, and AbstractUnify against
// the answer rebuilt with Trie.Term.

// linearize replaces every variable occurrence of t by a fresh variable.
func linearize(t term.Term) term.Term {
	switch t := term.Deref(t).(type) {
	case *term.Var:
		return term.NewVar("_")
	case *term.Compound:
		args := make([]term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = linearize(a)
		}
		return &term.Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// abstractAnswer is the depth-k answer abstraction built as a term:
// each argument cut at depth k and linearized, the root kept.
func abstractAnswer(t term.Term, k int) term.Term {
	name, args, ok := term.FunctorArity(t)
	if !ok || len(args) == 0 {
		return t
	}
	cut := make([]term.Term, len(args))
	for i, a := range args {
		cut[i] = linearize(CutDepth(a, k))
	}
	return term.NewCompound(name, cut...)
}

// checkTriePath compares the trie path with the term-level reference on
// one goal/answer pair and returns their verdict. goal is a call (not a
// variable); it is left unbound.
func checkTriePath(t testing.TB, goal, answer term.Term, k int) bool {
	t.Helper()
	ref := abstractAnswer(answer, k)

	// Insert: the cut-insert reaches the reference's leaf and allocates
	// the same nodes.
	tr := term.NewTrie()
	leaf, nodes := tr.InsertDepth(answer, k)
	_, refNodes := term.NewTrie().Insert(ref)
	if nodes != refNodes {
		t.Fatalf("k=%d %v: cut-insert allocated %d nodes, reference %d (%v)",
			k, answer, nodes, refNodes, ref)
	}
	if again, more := tr.Insert(ref); again != leaf || more != 0 {
		t.Fatalf("k=%d %v: reference %v reaches another leaf (%d new nodes)", k, answer, ref, more)
	}
	if got, want := term.Canonical(tr.Term(leaf)), term.Canonical(ref); got != want {
		t.Fatalf("k=%d %v: stored %s, reference %s", k, answer, got, want)
	}

	// Consume: the same verdict and the same goal instance as abstract
	// unification against the rebuilt answer.
	refGoal := term.Rename(goal, nil)
	var refTrail term.Trail
	want := AbstractUnify(refGoal, tr.Term(leaf), k, &refTrail)
	trieGoal := term.Rename(goal, nil)
	var trail term.Trail
	got, err := tr.AbstractUnify(trieGoal, leaf, &trail)
	if err != nil {
		t.Fatalf("k=%d goal %v, answer %v: %v", k, goal, ref, err)
	}
	if got != want {
		t.Fatalf("k=%d goal %v, answer %v: trie path says %v, AbstractUnify %v", k, goal, ref, got, want)
	}
	if want && term.Canonical(trieGoal) != term.Canonical(refGoal) {
		t.Fatalf("k=%d goal %v, answer %v: trie path leaves %s, AbstractUnify %s",
			k, goal, ref, term.Canonical(trieGoal), term.Canonical(refGoal))
	}
	return want
}

// genAbstract builds a random term over a, b, 0, 1, γ, the variables
// of pool and f/1, g/2.
func genAbstract(r *rand.Rand, depth int, pool []*term.Var) term.Term {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			return term.Atom([]string{"a", "b"}[r.Intn(2)])
		case 1:
			return term.Int(r.Intn(2))
		case 2:
			return Gamma
		default:
			return pool[r.Intn(len(pool))]
		}
	}
	if r.Intn(2) == 0 {
		return term.Comp("f", genAbstract(r, depth-1, pool))
	}
	return term.Comp("g", genAbstract(r, depth-1, pool), genAbstract(r, depth-1, pool))
}

// TestTriePathMatchesTermPath: for random goal/answer pairs with γ and
// shared variables on both sides, the trie's cut-insert and abstract
// unification agree with the term-level reference at k = 1..3.
func TestTriePathMatchesTermPath(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const pairs = 3000
	unified := 0
	for i := 0; i < pairs; i++ {
		n := 1 + r.Intn(3)
		pool := []*term.Var{term.NewVar("P"), term.NewVar("Q"), term.NewVar("R")}
		gargs := make([]term.Term, n)
		aargs := make([]term.Term, n)
		for j := range gargs {
			gargs[j] = genAbstract(r, 3, pool[:2])
			aargs[j] = genAbstract(r, 4, pool[1:])
		}
		goal, answer := term.Comp("p", gargs...), term.Comp("p", aargs...)
		if checkTriePath(t, goal, answer, 1+i%3) {
			unified++
		}
	}
	// Both verdicts must be well represented for the check to mean much.
	if unified < pairs/10 || unified > pairs*9/10 {
		t.Fatalf("%d of %d pairs unify", unified, pairs)
	}
	t.Logf("%d of %d pairs unify", unified, pairs)
}

// TestCutLinearMatchesReference: aabs/2's one-pass cut-and-linearize
// gives a variant of linearize(CutDepth(t, k)).
func TestCutLinearMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pool := []*term.Var{term.NewVar("P"), term.NewVar("Q")}
	for i := 0; i < 1000; i++ {
		tm, k := genAbstract(r, 4, pool), i%4
		if got, want := cutLinear(tm, k), linearize(CutDepth(tm, k)); !term.Variant(got, want) {
			t.Fatalf("k=%d %v: cutLinear %v, reference %v", k, tm, got, want)
		}
	}
}

// TestTriePathCases pins the rules one at a time.
func TestTriePathCases(t *testing.T) {
	for _, c := range []struct {
		goal, answer string
		k            int
	}{
		{"p(X)", "p(f(g(a, b)))", 1},          // goal variable takes the cut answer
		{"p(f(X))", "p(f(g(a, b)))", 1},       // γ cell grounds out X
		{"p(f(g(X, Y)))", "p(f(g(a, Z)))", 1}, // γ cell grounds out a compound
		{"p('$gamma')", "p(f(g(a, Z)))", 2},   // goal γ skips the stored subterm
		{"p(X, X)", "p(f(Y), f(a))", 2},       // sharing in the goal, none stored
		{"p(X, X)", "p(f(a), b)", 3},          // clash through a shared goal variable
		{"p(a, 1)", "p(a, 2)", 1},             // integer clash
		{"p(f(X), X)", "p(f(Y), g(Y, Y))", 1}, // stored variables match without binding
		{"p(g(X, f(X)))", "p(g(U, f(U)))", 3}, // the stored copy is linear
		{"q", "q", 1},                         // an atomic call
		{"p(X, Y)", "p(f(f(f(Z))), f(a))", 2}, // non-ground at the cut: a variable
	} {
		goal, _, err := prolog.ParseTerm(c.goal)
		if err != nil {
			t.Fatal(err)
		}
		answer, _, err := prolog.ParseTerm(c.answer)
		if err != nil {
			t.Fatal(err)
		}
		checkTriePath(t, goal, answer, c.k)
	}
}

// FuzzTrieAbstractUnify holds the trie path (cut-insert, abstract
// unification against the stored path) to the term-level reference on
// arbitrary goal/answer pairs at k = 1..3. Goals are calls: a variable
// goal is skipped.
func FuzzTrieAbstractUnify(f *testing.F) {
	for _, p := range []struct {
		goal, answer string
		k            uint8
	}{
		{"p(X)", "p(f(g(a, b)))", 0},
		{"p(f(X), X)", "p(f(Y), g(Y, Y))", 1},
		{"p('$gamma', X)", "p(f(Z), '$gamma')", 2},
		{"p(X, X)", "p(f(Y), f(a))", 1},
		{"p([H | T])", "p([1, 2, 3 | R])", 2},
		{"'$gamma'", "p(a)", 0},
	} {
		f.Add(p.goal, p.answer, p.k)
	}
	f.Fuzz(func(t *testing.T, goalSrc, answerSrc string, k uint8) {
		goal, _, errG := prolog.ParseTerm(goalSrc)
		answer, _, errA := prolog.ParseTerm(answerSrc)
		if errG != nil || errA != nil {
			return
		}
		if _, _, callable := term.FunctorArity(goal); !callable {
			return
		}
		checkTriePath(t, goal, answer, 1+int(k%3))
	})
}
