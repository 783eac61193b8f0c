package term

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
// A Trie is not safe for concurrent use; each engine machine owns its
// tries. The global symbol intern table (intern.go) is shared and
// thread-safe.

// TrieNodeBytes is the accounting charge per allocated trie node, the
// trie analogue of the string-map's canonical-key bytes in the paper's
// "Table space (bytes)" column: cell key (16) + edge storage (~24) +
// leaf payload slot (8).
const TrieNodeBytes = 48

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

type trieEdge struct {
	key   cellKey
	child *TrieNode
}

// spillFanout is the child count at which a node's linear edge list is
// promoted to a map. Most trie nodes have a handful of children (one
// per clause constructor); answer tries over large fact sets fan out at
// the argument cells and need the map.
const spillFanout = 8

// TrieNode is one node of a term trie. The node a full term walk ends
// at is the term's leaf; callers attach their payload there.
type TrieNode struct {
	edges []trieEdge            // small fanout: linear scan
	big   map[cellKey]*TrieNode // non-nil once fanout spills
	val   any                   // payload; nilValue marks a nil payload
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
	for i := range n.edges {
		if n.edges[i].key == k {
			return n.edges[i].child
		}
	}
	return nil
}

// addChild links c under n. A node's first edge comes from the trie's
// edge slab (capacity 1, so a second child reallocates normally): most
// nodes lie on a chain spelling one term and never get a second child.
func (tr *Trie) addChild(n *TrieNode, k cellKey, c *TrieNode) {
	if n.big != nil {
		n.big[k] = c
		return
	}
	if n.edges == nil {
		if len(tr.edgeSlab) == 0 {
			tr.edgeChunk = nextChunk(tr.edgeChunk)
			tr.edgeSlab = make([]trieEdge, tr.edgeChunk)
		}
		n.edges = tr.edgeSlab[:1:1]
		tr.edgeSlab = tr.edgeSlab[1:]
		n.edges[0] = trieEdge{key: k, child: c}
		return
	}
	if len(n.edges) < spillFanout {
		n.edges = append(n.edges, trieEdge{key: k, child: c})
		return
	}
	n.big = make(map[cellKey]*TrieNode, 2*spillFanout)
	for _, e := range n.edges {
		n.big[e.key] = e.child
	}
	n.edges = nil
	n.big[k] = c
}

// Trie is a term trie with reusable walk scratch. The zero value is
// ready to use; NewTrie is provided for symmetry with other containers.
type Trie struct {
	root  TrieNode
	nodes int // allocated nodes, excluding the embedded root
	syms  *SymCache

	// Scratch buffers reused across walks so a hit allocates nothing.
	stack []Term
	vars  []*Var
	// Slabs of preallocated nodes and first edges, handed out in order
	// so that growing the trie costs one allocation per chunk rather
	// than per node; chunk sizes double up to maxSlab, so a small trie
	// wastes at most a few entries.
	slab             []TrieNode
	edgeSlab         []trieEdge
	chunk, edgeChunk int // sizes of the last chunks
}

const maxSlab = 8

func nextChunk(last int) int { return min(max(2*last, 2), maxSlab) }

// newNode returns a fresh node from the trie's slab.
func (tr *Trie) newNode() *TrieNode {
	if len(tr.slab) == 0 {
		tr.chunk = nextChunk(tr.chunk)
		tr.slab = make([]TrieNode, tr.chunk)
	}
	n := &tr.slab[0]
	tr.slab = tr.slab[1:]
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
	before := tr.nodes
	leaf = tr.walk(t, true)
	return leaf, tr.nodes - before
}

// Lookup walks t without creating nodes and returns its leaf, or
// ok=false if no term with t's preorder spelling was ever inserted.
func (tr *Trie) Lookup(t Term) (leaf *TrieNode, ok bool) {
	leaf = tr.walk(t, false)
	return leaf, leaf != nil
}

// walk spells t cell by cell from the root. Variables are numbered by
// first occurrence in preorder, exactly Canonical's _0, _1, ...
// numbering, so leaf identity coincides with Variant equivalence. The
// traversal is iterative over a reused stack: a walk that creates no
// nodes performs no allocation.
func (tr *Trie) walk(t Term, create bool) *TrieNode {
	n := &tr.root
	tr.stack = append(tr.stack[:0], t)
	tr.vars = tr.vars[:0]
	for len(tr.stack) > 0 {
		top := tr.stack[len(tr.stack)-1]
		tr.stack = tr.stack[:len(tr.stack)-1]
		var k cellKey
		switch tt := Deref(top).(type) {
		case Atom:
			k = cellKey{kind: cAtom, sym: tr.syms.Intern(string(tt))}
		case Int:
			k = cellKey{kind: cInt, num: int64(tt)}
		case *Var:
			idx := -1
			for i, v := range tr.vars {
				if v == tt {
					idx = i
					break
				}
			}
			if idx < 0 {
				idx = len(tr.vars)
				tr.vars = append(tr.vars, tt)
			}
			k = cellKey{kind: cVar, num: int64(idx)}
		case *Compound:
			k = cellKey{kind: cFunctor, sym: tr.syms.Intern(tt.Functor), num: int64(len(tt.Args))}
			for i := len(tt.Args) - 1; i >= 0; i-- {
				tr.stack = append(tr.stack, tt.Args[i])
			}
		}
		next := n.child(k)
		if next == nil {
			if !create {
				return nil
			}
			next = tr.newNode()
			tr.addChild(n, k, next)
			tr.nodes++
		}
		n = next
	}
	return n
}
