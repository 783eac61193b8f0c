// Package term implements the term representation shared by every
// component of the system: the Prolog reader, the tabled engine, the
// bottom-up engine, and the analysis transformations.
//
// A Term is one of:
//
//   - Atom: a symbolic constant ('foo', '[]', ':-')
//   - Int: an integer constant
//   - *Var: a logic variable with an in-place binding cell
//   - *Compound: a functor applied to one or more arguments
//
// Variables are bound destructively and undone via a Trail, exactly as in
// a WAM-style engine. All operations that follow bindings call Deref
// first, so client code may freely mix bound and unbound terms.
package term

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Term is the interface satisfied by all term representations.
type Term interface {
	isTerm()
	// String renders the term in canonical (non-operator) notation.
	String() string
}

// Atom is a symbolic constant. The empty list is Atom("[]").
type Atom string

// Int is an integer constant.
type Int int64

// Var is a logic variable. Ref is nil while the variable is unbound and
// points to the bound value otherwise. Bind through a Trail so the
// binding can be undone on backtracking.
type Var struct {
	Name string // surface name, for printing only
	Ref  Term   // nil when unbound
	id   uint64 // unique id, used for stable printing and ordering
}

// Compound is a functor of arity >= 1 applied to arguments.
// Zero-arity "compounds" are represented as Atom.
type Compound struct {
	Functor string
	Args    []Term
}

func (Atom) isTerm()      {}
func (Int) isTerm()       {}
func (*Var) isTerm()      {}
func (*Compound) isTerm() {}

var varCounter uint64

// NewVar returns a fresh unbound variable. The name is used only for
// printing; uniqueness comes from an internal counter.
func NewVar(name string) *Var {
	return &Var{Name: name, id: atomic.AddUint64(&varCounter, 1)}
}

// ID returns the variable's unique identifier.
func (v *Var) ID() uint64 { return v.id }

// NewCompound builds a compound term; with zero args it returns an Atom.
func NewCompound(functor string, args ...Term) Term {
	if len(args) == 0 {
		return Atom(functor)
	}
	return &Compound{Functor: functor, Args: args}
}

// Comp is like NewCompound but always returns *Compound and panics on
// zero arguments. Use it when the caller statically knows arity >= 1.
func Comp(functor string, args ...Term) *Compound {
	if len(args) == 0 {
		panic("term.Comp: zero arity")
	}
	return &Compound{Functor: functor, Args: args}
}

// Deref follows variable bindings until it reaches an unbound variable or
// a non-variable term.
func Deref(t Term) Term {
	for {
		v, ok := t.(*Var)
		if !ok || v.Ref == nil {
			return t
		}
		t = v.Ref
	}
}

// Indicator returns the predicate indicator "name/arity" for a callable
// term, or "", false if the term is not callable (variable or integer).
func Indicator(t Term) (string, bool) {
	switch t := Deref(t).(type) {
	case Atom:
		return string(t) + "/0", true
	case *Compound:
		return t.Functor + "/" + strconv.Itoa(len(t.Args)), true
	}
	return "", false
}

// SplitIndicator splits an indicator "name/arity" into its parts. The
// arity is -1, and the name the whole string, when ind has no
// "/arity" suffix (a bare name).
func SplitIndicator(ind string) (string, int) {
	i := strings.LastIndexByte(ind, '/')
	if i < 0 {
		return ind, -1
	}
	n, err := strconv.Atoi(ind[i+1:])
	if err != nil || n < 0 {
		return ind, -1
	}
	return ind[:i], n
}

// OpenCall builds the most general call name(V1, ..., Vn) of an
// indicator "name/n".
func OpenCall(ind string) Term {
	name, arity := SplitIndicator(ind)
	args := make([]Term, max(arity, 0))
	for i := range args {
		args[i] = NewVar("V")
	}
	return NewCompound(name, args...)
}

// FunctorArity splits a callable term into functor name and arguments.
func FunctorArity(t Term) (string, []Term, bool) {
	switch t := Deref(t).(type) {
	case Atom:
		return string(t), nil, true
	case *Compound:
		return t.Functor, t.Args, true
	}
	return "", nil, false
}

// Trail records variable bindings so they can be undone on backtracking.
type Trail struct {
	bound []*Var
}

// Mark returns the current trail position.
func (tr *Trail) Mark() int { return len(tr.bound) }

// Bind binds v to t and records the binding.
func (tr *Trail) Bind(v *Var, t Term) {
	v.Ref = t
	tr.bound = append(tr.bound, v)
}

// Undo unbinds every variable bound since the given mark.
func (tr *Trail) Undo(mark int) {
	for i := len(tr.bound) - 1; i >= mark; i-- {
		tr.bound[i].Ref = nil
	}
	tr.bound = tr.bound[:mark]
}

// Len reports the number of currently-trailed bindings.
func (tr *Trail) Len() int { return len(tr.bound) }

// Binding is one trailed (variable, value) pair.
type Binding struct {
	Var *Var
	Val Term
}

// Since copies the bindings made since mark, oldest first: a snapshot
// that Rebind can reinstate after the trail has been undone past mark.
func (tr *Trail) Since(mark int) []Binding {
	seg := tr.bound[mark:]
	if len(seg) == 0 {
		return nil
	}
	out := make([]Binding, len(seg))
	for i, v := range seg {
		out[i] = Binding{v, v.Ref}
	}
	return out
}

// Rebind reinstates a snapshot taken by Since, trailing each binding.
// The snapshot's variables must be unbound.
func (tr *Trail) Rebind(bs []Binding) {
	for _, b := range bs {
		tr.Bind(b.Var, b.Val)
	}
}

// Unify unifies a and b, trailing bindings on tr. It returns false and
// leaves the trail position unchanged in the caller's responsibility:
// callers should Mark before and Undo on failure if they need atomicity.
func Unify(a, b Term, tr *Trail) bool {
	a, b = Deref(a), Deref(b)
	if a == b {
		return true
	}
	switch at := a.(type) {
	case *Var:
		tr.Bind(at, b)
		return true
	}
	if bv, ok := b.(*Var); ok {
		tr.Bind(bv, a)
		return true
	}
	switch at := a.(type) {
	case Atom:
		bb, ok := b.(Atom)
		return ok && at == bb
	case Int:
		bb, ok := b.(Int)
		return ok && at == bb
	case *Compound:
		bb, ok := b.(*Compound)
		if !ok || at.Functor != bb.Functor || len(at.Args) != len(bb.Args) {
			return false
		}
		for i := range at.Args {
			if !Unify(at.Args[i], bb.Args[i], tr) {
				return false
			}
		}
		return true
	}
	return false
}

// UnifyAtomic is Unify with rollback on failure: on a failed unification
// the trail is restored to its state at entry.
func UnifyAtomic(a, b Term, tr *Trail) bool {
	mark := tr.Mark()
	if Unify(a, b, tr) {
		return true
	}
	tr.Undo(mark)
	return false
}

// Occurs reports whether unbound variable v occurs in t.
func Occurs(v *Var, t Term) bool {
	switch t := Deref(t).(type) {
	case *Var:
		return t == v
	case *Compound:
		for _, a := range t.Args {
			if Occurs(v, a) {
				return true
			}
		}
	}
	return false
}

// UnifyOC unifies with the occur-check, as required for the Hindley-Milner
// style equation solving discussed in the paper's §6.1 and for depth-k
// abstract unification (§5). Rolls back on failure.
func UnifyOC(a, b Term, tr *Trail) bool {
	mark := tr.Mark()
	if unifyOC(a, b, tr) {
		return true
	}
	tr.Undo(mark)
	return false
}

func unifyOC(a, b Term, tr *Trail) bool {
	a, b = Deref(a), Deref(b)
	if a == b {
		return true
	}
	if av, ok := a.(*Var); ok {
		if Occurs(av, b) {
			return false
		}
		tr.Bind(av, b)
		return true
	}
	if bv, ok := b.(*Var); ok {
		if Occurs(bv, a) {
			return false
		}
		tr.Bind(bv, a)
		return true
	}
	switch at := a.(type) {
	case Atom:
		bb, ok := b.(Atom)
		return ok && at == bb
	case Int:
		bb, ok := b.(Int)
		return ok && at == bb
	case *Compound:
		bb, ok := b.(*Compound)
		if !ok || at.Functor != bb.Functor || len(at.Args) != len(bb.Args) {
			return false
		}
		for i := range at.Args {
			if !unifyOC(at.Args[i], bb.Args[i], tr) {
				return false
			}
		}
		return true
	}
	return false
}

// IsGround reports whether t contains no unbound variables.
func IsGround(t Term) bool { return isGround(t) }

func isGround(t Term) bool {
	switch t := Deref(t).(type) {
	case *Var:
		return false
	case *Compound:
		for _, a := range t.Args {
			if !isGround(a) {
				return false
			}
		}
	}
	return true
}

// Vars returns the distinct unbound variables of t in first-occurrence
// (left-to-right, depth-first) order.
func Vars(t Term) []*Var {
	var out []*Var
	seen := map[*Var]bool{}
	var walk func(Term)
	walk = func(t Term) {
		switch t := Deref(t).(type) {
		case *Var:
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		case *Compound:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	walk(t)
	return out
}

// Rename returns a copy of t with every unbound variable replaced by a
// fresh variable; bound variables are replaced by (renamed copies of)
// their values. The map accumulates the renaming so shared variables stay
// shared; pass nil for a fresh renaming.
func Rename(t Term, m map[*Var]*Var) Term {
	r := renamer{m}
	return r.rename(t)
}

// renamer allocates its variable map on the first variable, so renaming
// a ground term costs no map.
type renamer struct{ m map[*Var]*Var }

func (r *renamer) rename(t Term) Term {
	switch t := Deref(t).(type) {
	case *Var:
		if r.m == nil {
			r.m = map[*Var]*Var{}
		}
		nv, ok := r.m[t]
		if !ok {
			nv = NewVar(t.Name)
			r.m[t] = nv
		}
		return nv
	case *Compound:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = r.rename(a)
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// Resolve returns a copy of t with all bindings applied; unbound variables
// are kept (the same *Var pointers). Useful for snapshotting an answer.
func Resolve(t Term) Term {
	switch t := Deref(t).(type) {
	case *Compound:
		var args []Term // allocated at the first argument that changes
		for i, a := range t.Args {
			r := Resolve(a)
			if r != a && args == nil {
				args = make([]Term, len(t.Args))
				copy(args, t.Args[:i])
			}
			if args != nil {
				args[i] = r
			}
		}
		if args == nil {
			return t
		}
		return &Compound{Functor: t.Functor, Args: args}
	default:
		return t
	}
}

// Depth returns the maximum constructor nesting depth of t; atoms,
// integers, and variables have depth 0, f(a) has depth 1, and so on.
func Depth(t Term) int {
	switch t := Deref(t).(type) {
	case *Compound:
		max := 0
		for _, a := range t.Args {
			if d := Depth(a); d > max {
				max = d
			}
		}
		return 1 + max
	default:
		return 0
	}
}

// Size returns the number of atom/int/var/functor nodes in t.
func Size(t Term) int {
	switch t := Deref(t).(type) {
	case *Compound:
		n := 1
		for _, a := range t.Args {
			n += Size(a)
		}
		return n
	default:
		return 1
	}
}

// Compare imposes a total order on terms (standard order of terms:
// Var < Int < Atom < Compound; compounds by arity, then functor, then
// args). Unbound variables are ordered by creation id.
func Compare(a, b Term) int {
	a, b = Deref(a), Deref(b)
	oa, ob := ordClass(a), ordClass(b)
	if oa != ob {
		return oa - ob
	}
	switch at := a.(type) {
	case *Var:
		bt := b.(*Var)
		switch {
		case at.id < bt.id:
			return -1
		case at.id > bt.id:
			return 1
		}
		return 0
	case Int:
		bt := b.(Int)
		switch {
		case at < bt:
			return -1
		case at > bt:
			return 1
		}
		return 0
	case Atom:
		return strings.Compare(string(at), string(b.(Atom)))
	case *Compound:
		bt := b.(*Compound)
		if d := len(at.Args) - len(bt.Args); d != 0 {
			return d
		}
		if d := strings.Compare(at.Functor, bt.Functor); d != 0 {
			return d
		}
		for i := range at.Args {
			if d := Compare(at.Args[i], bt.Args[i]); d != 0 {
				return d
			}
		}
		return 0
	}
	return 0
}

func ordClass(t Term) int {
	switch t.(type) {
	case *Var:
		return 0
	case Int:
		return 1
	case Atom:
		return 2
	case *Compound:
		return 3
	}
	return 4
}

// SortTerms sorts a slice of terms in the standard order.
func SortTerms(ts []Term) {
	sort.Slice(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}

// SortVars orders variables by creation id (a deterministic order for
// code generators).
func SortVars(vs []*Var) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].id < vs[j].id })
}

// Equal reports whether two terms are identical after dereferencing.
// Compare returns 0 for identical unbound variables only (they are
// ordered by id), so Compare == 0 implies structural identity.
func Equal(a, b Term) bool { return Compare(a, b) == 0 }

func (a Atom) String() string { return quoteAtom(string(a)) }

func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

func (v *Var) String() string {
	if v.Ref != nil {
		return Deref(v).String()
	}
	if v.Name != "" && v.Name != "_" {
		return fmt.Sprintf("_%s%d", v.Name, v.id)
	}
	return fmt.Sprintf("_G%d", v.id)
}

func (c *Compound) String() string {
	var sb strings.Builder
	writeTerm(&sb, c)
	return sb.String()
}

// WriteString renders t into sb in canonical notation with list sugar.
func WriteString(sb *strings.Builder, t Term) { writeTerm(sb, t) }

func writeTerm(sb *strings.Builder, t Term) {
	switch t := Deref(t).(type) {
	case Atom:
		sb.WriteString(quoteAtom(string(t)))
	case Int:
		sb.WriteString(strconv.FormatInt(int64(t), 10))
	case *Var:
		sb.WriteString(t.String())
	case *Compound:
		if t.Functor == "." && len(t.Args) == 2 {
			writeList(sb, t)
			return
		}
		sb.WriteString(quoteAtom(t.Functor))
		sb.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeTerm(sb, a)
		}
		sb.WriteByte(')')
	}
}

func writeList(sb *strings.Builder, c *Compound) {
	sb.WriteByte('[')
	writeTerm(sb, c.Args[0])
	rest := Deref(c.Args[1])
	for {
		if rc, ok := rest.(*Compound); ok && rc.Functor == "." && len(rc.Args) == 2 {
			sb.WriteByte(',')
			writeTerm(sb, rc.Args[0])
			rest = Deref(rc.Args[1])
			continue
		}
		break
	}
	if a, ok := rest.(Atom); !ok || a != "[]" {
		sb.WriteByte('|')
		writeTerm(sb, rest)
	}
	sb.WriteByte(']')
}

// quoteAtom quotes an atom when it is not a plain identifier or symbol.
func quoteAtom(s string) string {
	if s == "" {
		return "''"
	}
	switch s {
	case "[]", "{}", "!", ";":
		return s
	case ",", ".", "|":
		// Ambiguous as bare text (argument separator / clause end / list
		// tail); always quote.
		return "'" + s + "'"
	}
	if isLowerIdent(s) || isSymbolic(s) {
		return s
	}
	var sb strings.Builder
	sb.WriteByte('\'')
	for _, r := range s {
		switch r {
		case '\'':
			sb.WriteString("\\'")
		case '\\':
			sb.WriteString("\\\\")
		case '\n':
			sb.WriteString("\\n")
		case '\t':
			sb.WriteString("\\t")
		default:
			sb.WriteRune(r)
		}
	}
	sb.WriteByte('\'')
	return sb.String()
}

func isLowerIdent(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c < 'a' || c > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolic(s string) bool {
	for i := 0; i < len(s); i++ {
		if !strings.ContainsRune(symbolChars, rune(s[i])) {
			return false
		}
	}
	return true
}
