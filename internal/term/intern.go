package term

import (
	"sync"
	"sync/atomic"
)

// Sym is an interned symbol identifier. Atom and functor names are
// mapped to dense uint32 ids by a global intern table, so symbol
// comparison — the innermost operation of the term tries — is integer
// equality instead of string comparison, and trie cells stay one word
// wide. Ids are process-global and never recycled; the same name always
// interns to the same Sym, from any goroutine.
type Sym uint32

// symState is an immutable snapshot of the intern table. Lookups load
// the current snapshot with one atomic pointer read and touch plain
// (never-mutated) Go data — no lock, no read-side atomics. Interning a
// new symbol publishes a fresh snapshot under symtab.mu; the copy is
// O(table), which amortizes to nothing because the table only grows by
// the program vocabulary while lookups run once per trie cell walked.
type symState struct {
	ids   map[string]Sym
	names []string // names[i] is the string Sym(i) was interned from
	atoms []Term   // atoms[i] is Atom(names[i]), boxed once at intern time
}

var symtab = func() (t struct {
	mu    sync.Mutex // serializes snapshot replacement
	state atomic.Pointer[symState]
}) {
	t.state.Store(&symState{ids: make(map[string]Sym, 512)})
	return
}()

// Intern returns the symbol id for name, assigning the next free id on
// first sight. Safe for concurrent use; the fast path is one atomic
// load and one map hit on an immutable snapshot.
func Intern(name string) Sym {
	if s, ok := symtab.state.Load().ids[name]; ok {
		return s
	}
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	cur := symtab.state.Load()
	if s, ok := cur.ids[name]; ok {
		return s
	}
	next := &symState{
		ids: make(map[string]Sym, len(cur.ids)+1),
		// The three-index slice forces the append to copy: the old
		// snapshot's backing array must never be written.
		names: append(cur.names[:len(cur.names):len(cur.names)], name),
		atoms: append(cur.atoms[:len(cur.atoms):len(cur.atoms)], Atom(name)),
	}
	for k, v := range cur.ids {
		next.ids[k] = v
	}
	s := Sym(len(cur.names))
	next.ids[name] = s
	symtab.state.Store(next)
	return s
}

// Name returns the string the symbol was interned from ("" for an id
// never issued by Intern).
func (s Sym) Name() string {
	if st := symtab.state.Load(); int(s) < len(st.names) {
		return st.names[s]
	}
	return ""
}

// Atom returns the symbol as an atom term (Atom("") for an id never
// issued by Intern). The term was boxed when the symbol was interned,
// so the call allocates nothing.
func (s Sym) Atom() Term {
	if st := symtab.state.Load(); int(s) < len(st.atoms) {
		return st.atoms[s]
	}
	return Atom("")
}

// InternedSyms reports how many distinct symbols the process has
// interned so far (an observability gauge; the table only grows).
func InternedSyms() int {
	return len(symtab.state.Load().names)
}

// symCacheSize is the slot count of a SymCache; a power of two so the
// index reduction is a mask.
const symCacheSize = 128

type symEntry struct {
	name string
	sym  Sym
}

// SymCache is a small direct-mapped memo in front of the global intern
// table. Interning is the innermost operation of every trie walk, and
// the working set of a single machine is a few dozen symbols that recur
// millions of times; a hit here is an array index plus one string
// compare, with no hashing and no shared state. A SymCache is NOT safe
// for concurrent use — give each machine its own and share it across
// that machine's tries. A nil *SymCache is valid and falls through to
// the global table.
type SymCache struct {
	entries [symCacheSize]symEntry
}

// Intern is Intern memoized through the cache.
func (c *SymCache) Intern(name string) Sym {
	if c == nil || len(name) == 0 {
		return Intern(name)
	}
	i := (uint(len(name))*131 + uint(name[0])*31 + uint(name[len(name)-1])) & (symCacheSize - 1)
	if e := &c.entries[i]; e.name == name {
		return e.sym
	}
	s := Intern(name)
	c.entries[i] = symEntry{name: name, sym: s}
	return s
}
