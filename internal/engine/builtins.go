package engine

import (
	"fmt"
	"sort"

	"xlp/internal/term"
)

// BuiltinTrail exposes the machine's trail so externally-registered
// builtins can bind variables. Per the Builtin contract, bindings must be
// active when the continuation runs and undone before the builtin
// returns.
func (m *Machine) BuiltinTrail() *term.Trail { return &m.trail }

// Register installs (or replaces) a builtin under the given indicator.
// Analysis packages use this to add native abstract-domain operations
// (iff/N for Prop, abstract unification for depth-k).
func (m *Machine) Register(indicator string, b Builtin) {
	m.builtins[parsePkey(indicator)] = b
}

// unifyK unifies a and b and calls k on success; the trail is restored
// before returning in all cases.
func (m *Machine) unifyK(a, b term.Term, k func() bool) bool {
	mark := m.trail.Mark()
	if term.Unify(a, b, &m.trail) {
		if k() {
			m.trail.Undo(mark)
			return true
		}
	}
	m.trail.Undo(mark)
	return false
}

func registerBuiltins(m *Machine) {
	bi := func(ind string, b Builtin) { m.builtins[parsePkey(ind)] = b }

	bi("=/2", func(m *Machine, args []term.Term, k func() bool) bool {
		return m.unifyK(args[0], args[1], k)
	})
	bi("\\=/2", func(m *Machine, args []term.Term, k func() bool) bool {
		mark := m.trail.Mark()
		ok := term.Unify(args[0], args[1], &m.trail)
		m.trail.Undo(mark)
		if ok {
			return false
		}
		return k()
	})
	bi("unify_with_occurs_check/2", func(m *Machine, args []term.Term, k func() bool) bool {
		mark := m.trail.Mark()
		if term.UnifyOC(args[0], args[1], &m.trail) {
			if k() {
				m.trail.Undo(mark)
				return true
			}
		}
		m.trail.Undo(mark)
		return false
	})

	// Type tests.
	test := func(f func(term.Term) bool) Builtin {
		return func(m *Machine, args []term.Term, k func() bool) bool {
			if f(term.Deref(args[0])) {
				return k()
			}
			return false
		}
	}
	bi("var/1", test(func(t term.Term) bool { _, ok := t.(*term.Var); return ok }))
	bi("nonvar/1", test(func(t term.Term) bool { _, ok := t.(*term.Var); return !ok }))
	bi("atom/1", test(func(t term.Term) bool { _, ok := t.(term.Atom); return ok }))
	bi("number/1", test(func(t term.Term) bool { _, ok := t.(term.Int); return ok }))
	bi("integer/1", test(func(t term.Term) bool { _, ok := t.(term.Int); return ok }))
	bi("compound/1", test(func(t term.Term) bool { _, ok := t.(*term.Compound); return ok }))
	bi("atomic/1", test(func(t term.Term) bool {
		switch t.(type) {
		case term.Atom, term.Int:
			return true
		}
		return false
	}))
	bi("callable/1", test(func(t term.Term) bool {
		switch t.(type) {
		case term.Atom, *term.Compound:
			return true
		}
		return false
	}))
	bi("ground/1", test(term.IsGround))
	bi("is_list/1", test(func(t term.Term) bool { _, ok := term.Slice(t); return ok }))

	// Structural comparison.
	cmp := func(f func(int) bool) Builtin {
		return func(m *Machine, args []term.Term, k func() bool) bool {
			if f(term.Compare(args[0], args[1])) {
				return k()
			}
			return false
		}
	}
	bi("==/2", cmp(func(c int) bool { return c == 0 }))
	bi("\\==/2", cmp(func(c int) bool { return c != 0 }))
	bi("@</2", cmp(func(c int) bool { return c < 0 }))
	bi("@>/2", cmp(func(c int) bool { return c > 0 }))
	bi("@=</2", cmp(func(c int) bool { return c <= 0 }))
	bi("@>=/2", cmp(func(c int) bool { return c >= 0 }))
	bi("compare/3", func(m *Machine, args []term.Term, k func() bool) bool {
		c := term.Compare(args[1], args[2])
		var r term.Atom
		switch {
		case c < 0:
			r = "<"
		case c > 0:
			r = ">"
		default:
			r = "="
		}
		return m.unifyK(args[0], r, k)
	})

	// Arithmetic.
	bi("is/2", func(m *Machine, args []term.Term, k func() bool) bool {
		v := m.evalArith(args[1])
		return m.unifyK(args[0], term.Int(v), k)
	})
	arith := func(f func(a, b int64) bool) Builtin {
		return func(m *Machine, args []term.Term, k func() bool) bool {
			if f(m.evalArith(args[0]), m.evalArith(args[1])) {
				return k()
			}
			return false
		}
	}
	bi("=:=/2", arith(func(a, b int64) bool { return a == b }))
	bi("=\\=/2", arith(func(a, b int64) bool { return a != b }))
	bi("</2", arith(func(a, b int64) bool { return a < b }))
	bi(">/2", arith(func(a, b int64) bool { return a > b }))
	bi("=</2", arith(func(a, b int64) bool { return a <= b }))
	bi(">=/2", arith(func(a, b int64) bool { return a >= b }))
	bi("between/3", func(m *Machine, args []term.Term, k func() bool) bool {
		lo := m.evalArith(args[0])
		hi := m.evalArith(args[1])
		if x, ok := term.Deref(args[2]).(term.Int); ok {
			if int64(x) >= lo && int64(x) <= hi {
				return k()
			}
			return false
		}
		for i := lo; i <= hi; i++ {
			if m.unifyK(args[2], term.Int(i), k) {
				return true
			}
		}
		return false
	})

	// Term construction and inspection.
	bi("functor/3", biFunctor)
	bi("arg/3", biArg)
	bi("=../2", biUniv)
	bi("copy_term/2", func(m *Machine, args []term.Term, k func() bool) bool {
		return m.unifyK(args[1], term.Rename(args[0], nil), k)
	})

	// Solution collection.
	bi("findall/3", func(m *Machine, args []term.Term, k func() bool) bool {
		var acc []term.Term
		m.sealed(func() {
			m.solveG(args[1], new(bool), func() bool {
				acc = append(acc, term.Rename(term.Resolve(args[0]), nil))
				return false
			})
		})
		return m.unifyK(args[2], term.List(acc...), k)
	})
	bi("once/1", func(m *Machine, args []term.Term, k func() bool) bool {
		_, stop := m.solveFirst(args[0], new(bool), k)
		return stop
	})
	bi("forall/2", func(m *Machine, args []term.Term, k func() bool) bool {
		holds := true
		m.sealed(func() {
			m.solveG(args[0], new(bool), func() bool {
				ok := false
				m.solveG(args[1], new(bool), func() bool { ok = true; return true })
				if !ok {
					holds = false
					return true
				}
				return false
			})
		})
		if holds {
			return k()
		}
		return false
	})
	bi("aggregate_all/3", func(m *Machine, args []term.Term, k func() bool) bool {
		// aggregate_all(count, Goal, N) only.
		if c, ok := term.Deref(args[0]).(term.Atom); !ok || c != "count" {
			m.throwf("aggregate_all: only 'count' is supported")
		}
		n := 0
		m.sealed(func() {
			m.solveG(args[1], new(bool), func() bool { n++; return false })
		})
		return m.unifyK(args[2], term.Int(n), k)
	})

	// Dynamic code (the paper's preprocessing path).
	bi("assert/1", biAssertz)
	bi("assertz/1", biAssertz)
	bi("retract/1", biRetract)
	bi("asserta/1", func(m *Machine, args []term.Term, k func() bool) bool {
		cl := term.Rename(term.Resolve(args[0]), nil)
		if err := m.assertFront(cl); err != nil {
			m.throwf("%v", err)
		}
		return k()
	})

	// Output.
	bi("write/1", func(m *Machine, args []term.Term, k func() bool) bool {
		fmt.Fprint(m.Out, term.Deref(args[0]).String())
		return k()
	})
	bi("print/1", m.builtins[pkey{"write", 1}])
	bi("writeln/1", func(m *Machine, args []term.Term, k func() bool) bool {
		fmt.Fprintln(m.Out, term.Deref(args[0]).String())
		return k()
	})
	bi("nl/0", func(m *Machine, args []term.Term, k func() bool) bool {
		fmt.Fprintln(m.Out)
		return k()
	})

	// List utilities used by examples.
	bi("length/2", biLength)
	bi("msort/2", func(m *Machine, args []term.Term, k func() bool) bool {
		elems, ok := term.Slice(args[0])
		if !ok {
			m.throwf("msort: not a proper list: %v", args[0])
		}
		sorted := append([]term.Term{}, elems...)
		term.SortTerms(sorted)
		return m.unifyK(args[1], term.List(sorted...), k)
	})
	bi("sort/2", func(m *Machine, args []term.Term, k func() bool) bool {
		elems, ok := term.Slice(args[0])
		if !ok {
			m.throwf("sort: not a proper list: %v", args[0])
		}
		sorted := append([]term.Term{}, elems...)
		term.SortTerms(sorted)
		dedup := sorted[:0:0]
		for i, e := range sorted {
			if i == 0 || term.Compare(sorted[i-1], e) != 0 {
				dedup = append(dedup, e)
			}
		}
		return m.unifyK(args[1], term.List(dedup...), k)
	})

	// tab/1 pads output; used by pretty-printing examples.
	bi("tab/1", func(m *Machine, args []term.Term, k func() bool) bool {
		n := m.evalArith(args[0])
		for i := int64(0); i < n; i++ {
			fmt.Fprint(m.Out, " ")
		}
		return k()
	})
	_ = sort.Strings
}

// biRetract removes the first clause matching the pattern, succeeding at
// most once. A bare-head pattern retracts only facts; a ':-' pattern
// must match the whole clause.
func biRetract(m *Machine, args []term.Term, k func() bool) bool {
	pat := term.Deref(args[0])
	head, bodyPat := splitStored(pat)
	name, hargs, ok := term.FunctorArity(head)
	if !ok {
		m.throwf("retract: non-callable clause %v", pat)
	}
	key := pkey{name: name, arity: len(hargs)}
	p, exists := m.preds[key]
	if !exists {
		return false
	}
	for i, cl := range p.Clauses {
		mark := m.trail.Mark()
		h, b := renameClause(cl)
		matched := term.Unify(head, h, &m.trail)
		if matched {
			if patIsRule(pat) {
				matched = unifyBody(bodyPat, b, &m.trail)
			} else {
				matched = len(b) == 1 && term.Equal(b[0], term.Atom("true"))
			}
		}
		if matched {
			p.Clauses = append(p.Clauses[:i:i], p.Clauses[i+1:]...)
			for j, c := range p.Clauses {
				c.Nth = j
			}
			if p.indexed {
				p.index = map[string][]*Clause{}
				p.varFirst = nil
				for _, c := range p.Clauses {
					p.addToIndex(c)
				}
			}
			stop := k()
			m.trail.Undo(mark)
			return stop
		}
		m.trail.Undo(mark)
	}
	return false
}

func patIsRule(pat term.Term) bool {
	c, ok := term.Deref(pat).(*term.Compound)
	return ok && c.Functor == ":-" && len(c.Args) == 2
}

func unifyBody(bodyPat []term.Term, body []term.Term, tr *term.Trail) bool {
	if len(bodyPat) != len(body) {
		return false
	}
	for i := range body {
		if !term.Unify(bodyPat[i], body[i], tr) {
			return false
		}
	}
	return true
}

func biAssertz(m *Machine, args []term.Term, k func() bool) bool {
	cl := term.Rename(term.Resolve(args[0]), nil)
	if err := m.Assert(cl); err != nil {
		m.throwf("%v", err)
	}
	return k()
}

// assertFront inserts a clause at the beginning of its predicate.
func (m *Machine) assertFront(clause term.Term) error {
	head, body := splitStored(clause)
	name, hargs, ok := term.FunctorArity(head)
	if !ok {
		return fmt.Errorf("engine: cannot assert clause with non-callable head %v", head)
	}
	p := m.pred(pkey{name: name, arity: len(hargs)})
	cl := &Clause{Head: head, Body: body}
	cl.compile()
	p.Clauses = append([]*Clause{cl}, p.Clauses...)
	for i, c := range p.Clauses {
		c.Nth = i
	}
	if m.Mode == LoadCompiled {
		// Rebuild the index for this predicate to preserve order.
		p.indexed = false
		p.index = nil
		p.varFirst = nil
		p.indexed = true
		p.index = map[string][]*Clause{}
		for _, c := range p.Clauses {
			p.addToIndex(c)
		}
	}
	return nil
}

func splitStored(clause term.Term) (head term.Term, body []term.Term) {
	if c, ok := term.Deref(clause).(*term.Compound); ok && c.Functor == ":-" && len(c.Args) == 2 {
		return c.Args[0], flattenConj(c.Args[1])
	}
	return clause, []term.Term{term.Atom("true")}
}

func flattenConj(t term.Term) []term.Term {
	if c, ok := term.Deref(t).(*term.Compound); ok && c.Functor == "," && len(c.Args) == 2 {
		return append(flattenConj(c.Args[0]), flattenConj(c.Args[1])...)
	}
	return []term.Term{t}
}

func biFunctor(m *Machine, args []term.Term, k func() bool) bool {
	switch t := term.Deref(args[0]).(type) {
	case *term.Var:
		name := term.Deref(args[1])
		arity, ok := term.Deref(args[2]).(term.Int)
		if !ok {
			m.throwf("functor/3: arity not an integer")
		}
		if arity == 0 {
			return m.unifyK(args[0], name, k)
		}
		na, ok := name.(term.Atom)
		if !ok {
			m.throwf("functor/3: functor name %v not an atom", name)
		}
		fresh := make([]term.Term, arity)
		for i := range fresh {
			fresh[i] = term.NewVar("_")
		}
		return m.unifyK(args[0], term.NewCompound(string(na), fresh...), k)
	case term.Atom:
		return m.unifyK(term.Comp("fa", args[1], args[2]), term.Comp("fa", t, term.Int(0)), k)
	case term.Int:
		return m.unifyK(term.Comp("fa", args[1], args[2]), term.Comp("fa", t, term.Int(0)), k)
	case *term.Compound:
		return m.unifyK(term.Comp("fa", args[1], args[2]),
			term.Comp("fa", term.Atom(t.Functor), term.Int(len(t.Args))), k)
	}
	return false
}

func biArg(m *Machine, args []term.Term, k func() bool) bool {
	n, ok := term.Deref(args[0]).(term.Int)
	c, ok2 := term.Deref(args[1]).(*term.Compound)
	if !ok || !ok2 {
		m.throwf("arg/3: bad arguments %v, %v", args[0], args[1])
	}
	if n < 1 || int(n) > len(c.Args) {
		return false
	}
	return m.unifyK(args[2], c.Args[n-1], k)
}

func biUniv(m *Machine, args []term.Term, k func() bool) bool {
	switch t := term.Deref(args[0]).(type) {
	case term.Atom, term.Int:
		return m.unifyK(args[1], term.List(t), k)
	case *term.Compound:
		elems := append([]term.Term{term.Atom(t.Functor)}, t.Args...)
		return m.unifyK(args[1], term.List(elems...), k)
	case *term.Var:
		elems, ok := term.Slice(args[1])
		if !ok || len(elems) == 0 {
			m.throwf("=../2: list side not a proper non-empty list")
		}
		if len(elems) == 1 {
			return m.unifyK(args[0], elems[0], k)
		}
		name, ok := term.Deref(elems[0]).(term.Atom)
		if !ok {
			m.throwf("=../2: functor %v not an atom", elems[0])
		}
		return m.unifyK(args[0], term.NewCompound(string(name), elems[1:]...), k)
	}
	return false
}

func biLength(m *Machine, args []term.Term, k func() bool) bool {
	if n := term.Length(args[0]); n >= 0 {
		return m.unifyK(args[1], term.Int(n), k)
	}
	if n, ok := term.Deref(args[1]).(term.Int); ok {
		if n < 0 {
			return false
		}
		fresh := make([]term.Term, n)
		for i := range fresh {
			fresh[i] = term.NewVar("_")
		}
		return m.unifyK(args[0], term.List(fresh...), k)
	}
	m.throwf("length/2: insufficiently instantiated")
	return false
}

// evalArith evaluates an integer arithmetic expression.
func (m *Machine) evalArith(t term.Term) int64 {
	switch t := term.Deref(t).(type) {
	case term.Int:
		return int64(t)
	case *term.Var:
		m.throwf("arithmetic: unbound variable")
	case term.Atom:
		m.throwf("arithmetic: unknown constant %v", t)
	case *term.Compound:
		if len(t.Args) == 1 {
			a := m.evalArith(t.Args[0])
			switch t.Functor {
			case "-":
				return -a
			case "+":
				return a
			case "abs":
				if a < 0 {
					return -a
				}
				return a
			}
			m.throwf("arithmetic: unknown function %s/1", t.Functor)
		}
		if len(t.Args) == 2 {
			a := m.evalArith(t.Args[0])
			b := m.evalArith(t.Args[1])
			switch t.Functor {
			case "+":
				return a + b
			case "-":
				return a - b
			case "*":
				return a * b
			case "//", "/":
				if b == 0 {
					m.throwf("arithmetic: division by zero")
				}
				return a / b
			case "mod":
				if b == 0 {
					m.throwf("arithmetic: modulo by zero")
				}
				r := a % b
				if (r < 0) != (b < 0) && r != 0 {
					r += b
				}
				return r
			case "rem":
				if b == 0 {
					m.throwf("arithmetic: rem by zero")
				}
				return a % b
			case "min":
				if a < b {
					return a
				}
				return b
			case "max":
				if a > b {
					return a
				}
				return b
			case ">>":
				return a >> uint(b)
			case "<<":
				return a << uint(b)
			case "/\\":
				return a & b
			case "\\/":
				return a | b
			case "xor":
				return a ^ b
			}
			m.throwf("arithmetic: unknown function %s/2", t.Functor)
		}
	}
	m.throwf("arithmetic: cannot evaluate %v", t)
	return 0
}
