package term

import (
	"errors"
	"slices"
	"unsafe"
)

// Term tries, XSB-style: a trie indexes a set of terms by their variant
// class (identity up to consistent renaming of unbound variables — the
// same equivalence Canonical renders as a string). Each root-to-leaf
// path spells one term in preorder: functor and atom cells carry
// interned symbol ids, integer cells carry the value, and variable
// cells carry the variable's first-occurrence index, so two terms reach
// the same leaf iff they are variants. Insert-or-get is a single walk
// with no intermediate canonical string, and terms sharing a prefix
// share trie nodes (the substitution-factoring that makes XSB's call
// and answer tables compact).
//
// The path is also the stored term itself: every node records its
// parent and the cell on its incoming edge, so a leaf spells its term
// back (Term), and a goal unifies against the path directly (Unify).
// A table keeps no other copy of what it stores.
//
// The same holds for the depth-k domain (the paper's §5): InsertDepth
// spells a term's depth-k abstraction during the walk itself, and
// AbstractUnify matches a goal against such a path with depth-k
// abstract unification, so neither side builds the abstract term.
//
// A Trie is not safe for concurrent use; each engine machine owns its
// tries. The global symbol intern table (intern.go) is shared and
// thread-safe.

// TrieNodeBytes is the table-space charge per allocated trie node: the
// node itself plus the first-edge slot that holds it in its parent's
// edge list. The trie is the only copy of a stored term, so this is
// the real storage of one preorder cell (later edge slots and spilled
// maps are shared by a node's children and not charged).
const TrieNodeBytes = int(unsafe.Sizeof(TrieNode{}) + unsafe.Sizeof((*TrieNode)(nil)))

// Cell kinds. Zero-arity compounds cannot exist (NewCompound returns
// Atom), so cFunctor cells always carry arity >= 1 and never collide
// with cAtom cells of the same symbol.
const (
	cFunctor uint8 = iota
	cAtom
	cInt
	cVar
)

// cellKey is one trie edge label: a single preorder token of a term.
type cellKey struct {
	kind uint8
	sym  Sym   // atom or functor symbol (cAtom, cFunctor)
	num  int64 // integer value (cInt), arity (cFunctor), var index (cVar)
}

// spillFanout is the child count at which a node's linear edge list is
// promoted to a map. Most trie nodes have a handful of children (one
// per clause constructor); answer tries over large fact sets fan out at
// the argument cells and need the map.
const spillFanout = 8

// TrieNode is one node of a term trie. The node a full term walk ends
// at is the term's leaf; callers attach their payload there.
type TrieNode struct {
	parent *TrieNode             // nil at the root
	key    cellKey               // the cell on the edge from parent
	edges  []*TrieNode           // small fanout: linear scan of the children's keys
	big    map[cellKey]*TrieNode // non-nil once fanout spills
	val    any                   // payload; nilValue marks a nil payload
}

// nilValue stands for a nil payload, so an unset node is just val ==
// nil and needs no separate flag.
type nilValue struct{}

// Value returns the payload attached to the node and whether SetValue
// was ever called on it. A leaf with no payload is a prefix of longer
// terms only.
func (n *TrieNode) Value() (any, bool) {
	if _, isNil := n.val.(nilValue); isNil {
		return nil, true
	}
	return n.val, n.val != nil
}

// SetValue attaches a payload (nil is a valid payload: the node is then
// a presence mark, as in answer tables).
func (n *TrieNode) SetValue(v any) {
	if v == nil {
		v = nilValue{}
	}
	n.val = v
}

func (n *TrieNode) child(k cellKey) *TrieNode {
	if n.big != nil {
		return n.big[k]
	}
	for _, c := range n.edges {
		if c.key == k {
			return c
		}
	}
	return nil
}

// addChild links c under n by c's key. A node's first edge comes from
// the trie's edge slab (capacity 1, so a second child reallocates
// normally): most nodes lie on a chain spelling one term and never get
// a second child.
func (tr *Trie) addChild(n, c *TrieNode) {
	if n.big != nil {
		n.big[c.key] = c
		return
	}
	if n.edges == nil {
		if len(tr.edgeSlab) == 0 {
			tr.edgeChunk = nextChunk(tr.edgeChunk)
			tr.edgeSlab = make([]*TrieNode, tr.edgeChunk)
		}
		n.edges = tr.edgeSlab[:1:1]
		tr.edgeSlab = tr.edgeSlab[1:]
		n.edges[0] = c
		return
	}
	if len(n.edges) < spillFanout {
		n.edges = append(n.edges, c)
		return
	}
	n.big = make(map[cellKey]*TrieNode, 2*spillFanout)
	for _, e := range n.edges {
		n.big[e.key] = e
	}
	n.edges = nil
	n.big[c.key] = c
}

// Trie is a term trie with reusable walk scratch. The zero value is
// ready to use; NewTrie is provided for symmetry with other containers.
type Trie struct {
	root  TrieNode
	nodes int // allocated nodes, excluding the embedded root
	syms  *SymCache

	// Scratch buffers reused across walks so a hit allocates nothing.
	stack []walkItem
	vars  []*Var
	// Slabs of preallocated nodes and first edges, handed out in order
	// so that growing the trie costs one allocation per chunk rather
	// than per node; chunk sizes double up to maxSlab, so a small trie
	// wastes at most a few entries.
	slab             []TrieNode
	edgeSlab         []*TrieNode
	chunk, edgeChunk int // sizes of the last chunks

	dec trieDecoder // scratch for Term, Unify and AbstractUnify
}

const maxSlab = 8

func nextChunk(last int) int { return min(max(2*last, 2), maxSlab) }

// newNode returns a fresh node from the trie's slab, linked to its
// parent by cell k.
func (tr *Trie) newNode(parent *TrieNode, k cellKey) *TrieNode {
	if len(tr.slab) == 0 {
		tr.chunk = nextChunk(tr.chunk)
		tr.slab = make([]TrieNode, tr.chunk)
	}
	n := &tr.slab[0]
	tr.slab = tr.slab[1:]
	n.parent, n.key = parent, k
	return n
}

// NewTrie returns an empty trie.
func NewTrie() *Trie { return &Trie{} }

// UseSymCache attaches an intern memo to the trie's walks. An owner of
// many tries (the engine: one call trie plus one answer trie per
// subgoal) shares one cache across all of them; the cache inherits the
// trie's single-goroutine discipline.
func (tr *Trie) UseSymCache(c *SymCache) { tr.syms = c }

// Nodes reports how many nodes the trie has allocated (the root is free).
func (tr *Trie) Nodes() int { return tr.nodes }

// Bytes reports the trie's accounting size, Nodes() * TrieNodeBytes.
func (tr *Trie) Bytes() int { return tr.nodes * TrieNodeBytes }

// Insert walks t, creating any missing nodes, and returns t's leaf
// together with the number of nodes allocated by this walk (0 when the
// variant class was walked before). The caller distinguishes "present"
// from "prefix only" via the leaf's Value.
func (tr *Trie) Insert(t Term) (leaf *TrieNode, newNodes int) {
	return tr.InsertDepth(t, 0)
}

// InsertDepth is Insert of t's depth-k abstraction, spelled during the
// walk: each argument of t is cut at depth k, where a ground subterm
// becomes Gamma and anything else a variable, and every variable
// occurrence gets its own index (the stored term is linear, so sharing
// between positions is widened away). The root functor is never cut.
// k <= 0 inserts t itself.
func (tr *Trie) InsertDepth(t Term, k int) (leaf *TrieNode, newNodes int) {
	before := tr.nodes
	leaf = tr.walk(t, k, true)
	return leaf, tr.nodes - before
}

// Lookup walks t without creating nodes and returns its leaf, or
// ok=false if no term with t's preorder spelling was ever inserted.
func (tr *Trie) Lookup(t Term) (leaf *TrieNode, ok bool) {
	leaf = tr.walk(t, 0, false)
	return leaf, leaf != nil
}

// walkItem is a subterm still to be spelled and its depth below the
// root's arguments (the root is at depth -1, its arguments at 0).
type walkItem struct {
	t     Term
	depth int
}

// walk spells t cell by cell from the root; with k > 0 it spells t's
// depth-k abstraction (InsertDepth). Variables are numbered by first
// occurrence in preorder, exactly Canonical's _0, _1, ... numbering, so
// leaf identity coincides with Variant equivalence. The traversal is
// iterative over a reused stack: a walk that creates no nodes performs
// no allocation.
func (tr *Trie) walk(t Term, k int, create bool) *TrieNode {
	n := &tr.root
	tr.stack = append(tr.stack[:0], walkItem{t, -1})
	tr.vars = tr.vars[:0]
	for len(tr.stack) > 0 {
		c := tr.cell(k)
		next := n.child(c)
		if next == nil {
			if !create {
				return nil
			}
			next = tr.newNode(n, c)
			tr.addChild(n, next)
			tr.nodes++
		}
		n = next
	}
	return n
}

// cell pops the walk's next subterm and returns its cell, pushing the
// subterm's arguments in its place.
func (tr *Trie) cell(k int) cellKey {
	it := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	t := Deref(it.t)
	if k > 0 && it.depth == k {
		if !IsGround(t) {
			return tr.freshVar()
		}
		t = Gamma
	}
	switch tt := t.(type) {
	case Atom:
		return cellKey{kind: cAtom, sym: tr.syms.Intern(string(tt))}
	case Int:
		return cellKey{kind: cInt, num: int64(tt)}
	case *Var:
		if k > 0 {
			return tr.freshVar()
		}
		for i, v := range tr.vars {
			if v == tt {
				return cellKey{kind: cVar, num: int64(i)}
			}
		}
		tr.vars = append(tr.vars, tt)
		return cellKey{kind: cVar, num: int64(len(tr.vars) - 1)}
	}
	c := t.(*Compound)
	for i := len(c.Args) - 1; i >= 0; i-- {
		tr.stack = append(tr.stack, walkItem{c.Args[i], it.depth + 1})
	}
	return cellKey{kind: cFunctor, sym: tr.syms.Intern(c.Functor), num: int64(len(c.Args))}
}

// freshVar returns the cell of a variable occurrence that shares with
// none before it (a linear walk numbers every occurrence).
func (tr *Trie) freshVar() cellKey {
	tr.vars = append(tr.vars, nil)
	return cellKey{kind: cVar, num: int64(len(tr.vars) - 1)}
}

// Term rebuilds the term stored at leaf, with fresh variables: a
// variant of every term whose walk ended there.
func (tr *Trie) Term(leaf *TrieNode) Term {
	d := tr.decode(leaf, nil)
	t := d.build(d.next())
	d.reset()
	return t
}

// Unify unifies goal with the term stored at leaf, trailing bindings on
// trail. It binds as Unify(goal, Rename(t)) would for a stored term t,
// up to the identity of fresh variables: the first occurrence of a
// stored variable takes the goal subterm it meets, and only subterms
// bound to goal variables are built. So matching a call against a
// ground answer of atoms allocates nothing. Like Unify, it leaves its
// bindings on failure; callers undo to a mark.
func (tr *Trie) Unify(goal Term, leaf *TrieNode, trail *Trail) bool {
	d := tr.decode(leaf, trail)
	ok := d.unify(goal)
	d.reset()
	return ok
}

// trieDecoder reads a stored term back off its root-to-leaf path.
type trieDecoder struct {
	cells []cellKey // the stored term's preorder cells, root first
	pos   int       // next cell to read
	vars  []Term    // stored variable i's counterpart, by first occurrence
	trail *Trail
}

// decode loads leaf's path into the trie's decoder.
func (tr *Trie) decode(leaf *TrieNode, trail *Trail) *trieDecoder {
	d := &tr.dec
	d.cells = d.cells[:0]
	for n := leaf; n.parent != nil; n = n.parent {
		d.cells = append(d.cells, n.key)
	}
	slices.Reverse(d.cells)
	d.pos, d.trail = 0, trail
	return d
}

// reset drops the decoder's references into the caller's terms.
func (d *trieDecoder) reset() {
	clear(d.vars)
	d.vars, d.trail = d.vars[:0], nil
}

func (d *trieDecoder) next() cellKey {
	c := d.cells[d.pos]
	d.pos++
	return c
}

// unify matches goal against the stored subterm at the next cell.
func (d *trieDecoder) unify(goal Term) bool {
	c := d.next()
	if c.kind == cVar {
		if int(c.num) == len(d.vars) {
			d.vars = append(d.vars, goal)
			return true
		}
		return Unify(goal, d.vars[c.num], d.trail)
	}
	switch g := Deref(goal).(type) {
	case *Var:
		d.trail.Bind(g, d.build(c))
		return true
	case Atom:
		return c.kind == cAtom && c.sym.Name() == string(g)
	case Int:
		return c.kind == cInt && c.num == int64(g)
	case *Compound:
		if c.kind != cFunctor || int(c.num) != len(g.Args) || c.sym.Name() != g.Functor {
			return false
		}
		for _, a := range g.Args {
			if !d.unify(a) {
				return false
			}
		}
		return true
	}
	return false
}

// build constructs the stored subterm whose first cell is c, reading
// its remaining cells.
func (d *trieDecoder) build(c cellKey) Term {
	switch c.kind {
	case cAtom:
		return c.sym.Atom()
	case cInt:
		return Int(c.num)
	case cVar:
		if int(c.num) == len(d.vars) {
			d.vars = append(d.vars, NewVar(""))
		}
		return d.vars[c.num]
	}
	args := make([]Term, c.num)
	for i := range args {
		args[i] = d.build(d.next())
	}
	return &Compound{Functor: c.sym.Name(), Args: args}
}

// Gamma is the depth-k domain's abstract constant γ, which denotes the
// set of all ground terms. A trie stores it as an ordinary atom cell.
const Gamma = Atom("$gamma")

// GroundOut binds every unbound variable of t to Gamma: it abstract-
// unifies t with γ.
func GroundOut(t Term, trail *Trail) {
	switch t := Deref(t).(type) {
	case *Var:
		trail.Bind(t, Gamma)
	case *Compound:
		for _, a := range t.Args {
			GroundOut(a, trail)
		}
	}
}

// ErrNonLinear reports a stored term that repeats a variable where
// AbstractUnify expects a linear path, as InsertDepth stores.
var ErrNonLinear = errors.New("term: abstract unification against a stored term that repeats a variable")

// AbstractUnify abstract-unifies goal with the depth-k abstraction
// stored at leaf by InsertDepth, cell by cell off the path and trailing
// bindings on trail. The rules are depth-k abstract unification's: a γ
// cell grounds out the goal subterm it meets (GroundOut), a goal γ
// skips the stored subterm, a goal variable is bound to the stored
// subterm (built on the spot), and atoms, integers and functors are
// compared. The stored term is linear, so each stored variable is a
// first occurrence: it matches without binding anything, and no occurs
// check is needed against it. A stored subterm already fits within the
// depth bound, so a binding needs no second cut. goal is a call, not a
// variable (a root variable would take the whole stored term uncut). A
// path that repeats a variable was not stored by InsertDepth; it fails
// with ErrNonLinear. Like Unify, AbstractUnify leaves its bindings on
// failure.
func (tr *Trie) AbstractUnify(goal Term, leaf *TrieNode, trail *Trail) (bool, error) {
	d := tr.decode(leaf, trail)
	ok, err := false, ErrNonLinear
	if d.linear() {
		ok, err = d.aunify(goal), nil
	}
	d.reset()
	return ok, err
}

// linear reports whether every variable cell of the loaded path is a
// first occurrence.
func (d *trieDecoder) linear() bool {
	nv := 0
	for _, c := range d.cells {
		if c.kind == cVar {
			if int(c.num) != nv {
				return false
			}
			nv++
		}
	}
	return true
}

// gammaSym is Gamma's symbol, the cell AbstractUnify reads as γ.
var gammaSym = Intern(string(Gamma))

// aunify abstract-unifies goal with the stored subterm at the next
// cell. The path is linear, so every variable cell is a first
// occurrence; d.vars only counts them, for build's numbering.
func (d *trieDecoder) aunify(goal Term) bool {
	c := d.next()
	if c.kind == cVar {
		d.vars = append(d.vars, nil)
		return true
	}
	g := Deref(goal)
	if v, ok := g.(*Var); ok {
		d.trail.Bind(v, d.build(c))
		return true
	}
	if c.kind == cAtom && c.sym == gammaSym {
		GroundOut(g, d.trail)
		return true
	}
	switch g := g.(type) {
	case Atom:
		if g == Gamma {
			d.skip(c)
			return true
		}
		return c.kind == cAtom && c.sym.Name() == string(g)
	case Int:
		return c.kind == cInt && c.num == int64(g)
	case *Compound:
		if c.kind != cFunctor || int(c.num) != len(g.Args) || c.sym.Name() != g.Functor {
			return false
		}
		for _, a := range g.Args {
			if !d.aunify(a) {
				return false
			}
		}
		return true
	}
	return false
}

// skip reads past the stored subterm whose first cell is c.
func (d *trieDecoder) skip(c cellKey) {
	switch c.kind {
	case cVar:
		d.vars = append(d.vars, nil)
	case cFunctor:
		for range c.num {
			d.skip(d.next())
		}
	}
}
