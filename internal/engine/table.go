package engine

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/obs"
	"xlp/internal/term"
)

// subgoal is one entry in the call table: a tabled call (up to variance)
// together with its answers and completion bookkeeping.
//
// Completion discipline (answer-driven, after XSB's SLG-WAM). Subgoals
// are numbered by creation order (dfn) and resolved against their
// clauses exactly once, by runProducer. A tabled call that reaches an
// incomplete table consumes the answers already there, saves the rest of
// its derivation as a consumer record on that table, and fails; the
// dependency lowers the calling producer's minlink. When a producer's
// clause pass ends with minlink equal to its own dfn, the subgoal is an
// SCC leader: every incomplete subgoal created since it belongs to its
// region (had one depended below the leader, the link would have
// propagated to the leader). The leader resumes the region's consumers
// with the answers past their cursors until none is behind, then
// completes the whole region and frees its consumer records.
type subgoal struct {
	key  string    // canonical call key (TablesStringMap only)
	goal term.Term // detached copy of the call
	pred *Pred
	idx  int // creation index in m.subgoals; first half of an AnswerRef

	answers    []term.Term // detached instances of goal, insertion order
	answersGnd []bool      // per-answer: ground (no rename needed on use)
	// justs holds one justification per answer, index-aligned with
	// answers; nil unless the machine records provenance.
	justs []*Just
	// provMark is the premise-stack depth at the entry of the activation
	// (clause pass or consumer resumption) currently deriving answers for
	// this subgoal: addAnswer's premises are the refs above it.
	provMark int
	// Answer dedup index: answerKeys under TablesStringMap, ansTrie
	// under TablesTrie.
	answerKeys map[string]struct{}
	ansTrie    *term.Trie

	complete bool
	dfn      int
	minlink  int
	// consumers are the suspended derivations waiting on this table's
	// answers; nil once the table is complete.
	consumers []*consumer
}

// consumer is a suspended derivation: a tabled call that reached an
// incomplete table, saved so the SCC leader can feed it the answers the
// table gains later. Resuming it re-binds the trail segment its
// producer activation had built up to the call (CHAT-style copying of
// the bindings, not the stack: the continuation closure already is the
// rest of the derivation) and runs k once per new answer.
type consumer struct {
	owner    *subgoal // the producer whose derivation k continues
	goal     term.Term
	k        func() bool
	binds    []term.Binding // trail since the owner activation's mark
	premises []AnswerRef    // provenance premises above the owner's provMark
	cursor   int            // answers of the callee already delivered
}

// solveTabled resolves a call to a tabled predicate through the table.
func (m *Machine) solveTabled(p *Pred, goal term.Term, k func() bool) bool {
	lookup := goal
	if m.CallAbstraction != nil {
		// Table the abstracted (more general) call; its answers are
		// matched against the original goal below, so the concrete call
		// sees exactly the answers that apply to it.
		lookup = m.CallAbstraction(term.Resolve(goal))
	}
	sg, created := m.lookupOrCreate(p, lookup)
	if created {
		m.runProducer(sg)
	}
	owner := m.curProducer()
	if !sg.complete {
		if owner == nil || m.noSuspend {
			// A sealed context cannot take late answers, and sg's
			// region waits on a producer still running: answering from
			// the partial table would silently drop answers.
			m.throwErr(fmt.Errorf("%w: %v", ErrNonResumable, sg.goal))
		}
		// Record the SCC dependency so no ancestor completes before
		// sg's region does.
		if sg.minlink < owner.minlink {
			owner.minlink = sg.minlink
		}
	}
	next, stop := m.consume(sg, goal, 0, k)
	if stop {
		return true
	}
	if !sg.complete {
		m.suspend(owner, sg, goal, k, next)
	}
	return false
}

// consume feeds the answers of sg from index from onward to k, each
// unified with goal, and returns the index past the last answer fed.
// Answers added meanwhile (by k's own derivations) are fed too.
func (m *Machine) consume(sg *subgoal, goal term.Term, from int, k func() bool) (int, bool) {
	unify := term.Unify
	if m.AbstractUnify != nil {
		unify = m.AbstractUnify
	}
	for i := from; i < len(sg.answers); i++ {
		ans := sg.answers[i]
		if !sg.answersGnd[i] {
			// Answers with residual variables must be used via a fresh
			// renaming; ground answers (the common case) unify directly.
			ans = term.Rename(ans, nil)
		}
		mark := m.trail.Mark()
		if unify(goal, ans, &m.trail) {
			var stop bool
			if m.Provenance {
				// The continuation runs with this answer as a committed
				// premise of the derivation path (see provenance.go).
				m.premises = append(m.premises, AnswerRef{Subgoal: sg.idx, Answer: i})
				stop = k()
				m.premises = m.premises[:len(m.premises)-1]
			} else {
				stop = k()
			}
			if stop {
				m.trail.Undo(mark)
				return i + 1, true
			}
		}
		m.trail.Undo(mark)
	}
	return len(sg.answers), false
}

// suspend saves the current derivation as a consumer of sg that has
// seen sg's first cursor answers.
func (m *Machine) suspend(owner, sg *subgoal, goal term.Term, k func() bool, cursor int) {
	c := &consumer{owner: owner, goal: goal, k: k, cursor: cursor, binds: m.trail.Since(m.passMark)}
	if m.Provenance {
		c.premises = append([]AnswerRef(nil), m.premises[owner.provMark:]...)
	}
	sg.consumers = append(sg.consumers, c)
	m.stats.Suspensions++
	if m.tracer != nil {
		m.tracer.Emit(obs.EvSuspend, sg.pred.Indicator, 0)
	}
}

// resume re-enters consumer c of sg: it re-binds c's snapshot on top of
// the current trail, feeds c the answers past its cursor, and undoes.
func (m *Machine) resume(sg *subgoal, c *consumer) {
	saved := m.enter(c.owner)
	m.premises = append(m.premises, c.premises...)
	m.trail.Rebind(c.binds)
	from := c.cursor
	next, stop := m.consume(sg, c.goal, from, c.k)
	if stop {
		// Only a cut or a commit stops a producer's derivation, and
		// those contexts never suspend; a cut reached through a goal
		// bound at run time can still get here.
		m.throwErr(fmt.Errorf("%w: cut after %v", ErrNonResumable, sg.goal))
	}
	c.cursor = next
	m.stats.Resumptions += next - from
	if m.tracer != nil {
		m.tracer.Emit(obs.EvResume, sg.pred.Indicator, next-from)
	}
	m.trail.Undo(m.passMark)
	m.premises = m.premises[:c.owner.provMark]
	m.leave(c.owner, saved)
}

// activation is the scheduler state a producer activation (a clause
// pass or a consumer resumption) replaces on entry and restores on exit.
type activation struct {
	passMark, provMark int
	noSuspend          bool
}

// enter makes sg the current producer: its derivations suspend against
// the trail mark and premise depth taken here.
func (m *Machine) enter(sg *subgoal) activation {
	saved := activation{m.passMark, sg.provMark, m.noSuspend}
	m.stack = append(m.stack, sg)
	m.passMark = m.trail.Mark()
	sg.provMark = len(m.premises)
	m.noSuspend = false
	return saved
}

func (m *Machine) leave(sg *subgoal, saved activation) {
	m.stack = m.stack[:len(m.stack)-1]
	m.passMark, sg.provMark, m.noSuspend = saved.passMark, saved.provMark, saved.noSuspend
}

// useTrie reports whether the machine's tables are trie-indexed.
func (m *Machine) useTrie() bool { return m.Tables != TablesStringMap }

// lookupOrCreate resolves lookup to its call-table entry, creating one
// (with the subgoal-limit check and table-space accounting) on first
// sight of the variant class. Under TablesTrie the lookup is one walk
// of the term; under TablesStringMap it materializes the canonical key.
func (m *Machine) lookupOrCreate(p *Pred, lookup term.Term) (sg *subgoal, created bool) {
	var charge, nodes int
	var leaf *term.TrieNode
	if m.useTrie() {
		if m.callTrie == nil {
			m.callTrie = term.NewTrie()
			m.callTrie.UseSymCache(m.syms())
		}
		var newNodes int
		leaf, newNodes = m.callTrie.Insert(lookup)
		if v, ok := leaf.Value(); ok {
			return v.(*subgoal), false
		}
		charge, nodes = newNodes*term.TrieNodeBytes, newNodes
	} else {
		key := term.Canonical(lookup)
		if sg, ok := m.tables[key]; ok {
			return sg, false
		}
		charge = len(key)
		sg = &subgoal{key: key}
	}
	if m.stats.Subgoals >= m.Limits.maxSubgoals() {
		m.throwErr(fmt.Errorf("%w (%d)", ErrSubgoalLimit, m.Limits.maxSubgoals()))
	}
	if sg == nil {
		sg = &subgoal{}
	}
	sg.goal = term.Rename(lookup, nil) // Rename follows bindings
	sg.pred = p
	sg.idx = len(m.subgoals)
	if m.useTrie() {
		sg.ansTrie = term.NewTrie()
		sg.ansTrie.UseSymCache(m.syms())
		leaf.SetValue(sg)
	} else {
		sg.answerKeys = map[string]struct{}{}
		if m.tables == nil {
			m.tables = map[string]*subgoal{}
		}
		m.tables[sg.key] = sg
	}
	m.subgoals = append(m.subgoals, sg)
	m.stats.Subgoals++
	m.stats.CallBytes += charge
	m.stats.TableBytes += charge
	m.stats.TableNodes += nodes
	if m.tracer != nil {
		m.tracer.Emit(obs.EvSubgoalNew, p.Indicator, charge)
		if nodes > 0 {
			m.tracer.Emit(obs.EvTableNodes, p.Indicator, nodes)
		}
	}
	return sg, true
}

func (m *Machine) curProducer() *subgoal {
	if len(m.stack) == 0 {
		return nil
	}
	return m.stack[len(m.stack)-1]
}

// runProducer derives sg's answers with one pass over the predicate's
// clauses, then either completes sg's region (sg is its SCC leader) or
// passes its dependency link up to the calling producer.
func (m *Machine) runProducer(sg *subgoal) {
	m.stats.ProducerRuns++
	m.stats.ProducerPasses++
	if m.tracer != nil {
		m.tracer.Emit(obs.EvProducerRun, sg.pred.Indicator, 0)
		m.tracer.Emit(obs.EvProducerPass, sg.pred.Indicator, 0)
	}
	m.nextDfn++
	sg.dfn, sg.minlink = m.nextDfn, m.nextDfn
	m.complStack = append(m.complStack, sg)
	saved := m.enter(sg)
	if m.Mode == ModeClosure {
		m.producePassClosure(sg)
	} else {
		for _, cl := range sg.pred.clausesFor(sg.goal) {
			m.stats.Resolutions++
			if m.tracer != nil {
				m.tracer.Emit(obs.EvResolutions, sg.pred.Indicator, 1)
			}
			mark := m.trail.Mark()
			head, body := renameClause(cl)
			if term.Unify(sg.goal, head, &m.trail) {
				// nil cut barrier: cut may not cross a table boundary.
				m.solveGoals(body, nil, func() bool {
					m.addAnswer(sg, sg.goal, cl)
					return false
				})
			}
			m.trail.Undo(mark)
		}
	}
	m.leave(sg, saved)
	if sg.minlink == sg.dfn && m.completeRegion(sg) {
		return
	}
	if parent := m.curProducer(); parent != nil && sg.minlink < parent.minlink {
		parent.minlink = sg.minlink
	}
}

// completeRegion drains the consumers of leader's region — every
// completion-stack entry from leader up — until none has unconsumed
// answers, then completes the region. Resumptions run derivations that
// may reach incomplete tables older than the leader; then the region
// depends on them, the leader is no leader after all, and completion is
// left to an outer leader (false is returned). Nested leaders created by
// resumptions pop only entries above the ones present when they start,
// so indexing the stack from base stays valid throughout.
func (m *Machine) completeRegion(leader *subgoal) bool {
	base := len(m.complStack) - 1
	for m.complStack[base] != leader {
		base--
	}
	for behind := true; behind; {
		behind = false
		for i := base; i < len(m.complStack); i++ {
			sg := m.complStack[i]
			for j := 0; j < len(sg.consumers); j++ {
				if c := sg.consumers[j]; c.cursor < len(sg.answers) {
					m.resume(sg, c)
					if c.owner.minlink < leader.minlink {
						leader.minlink = c.owner.minlink
					}
					behind = true
				}
			}
		}
	}
	if leader.minlink < leader.dfn {
		return false
	}
	for _, sg := range m.complStack[base:] {
		sg.complete = true
		if m.tracer != nil {
			m.tracer.Emit(obs.EvComplete, sg.pred.Indicator, len(sg.consumers))
		}
		sg.consumers = nil
	}
	m.complStack = m.complStack[:base]
	return true
}

// addAnswer records the current instance of the subgoal's call as an
// answer if it is not a variant of an existing answer (the paper's §2
// footnote: "only unique answers are entered in the table, and
// duplicates are filtered out using variant checks"). cl is the clause
// whose body derivation produced the instance; with provenance enabled
// the first (and only the first) derivation of each answer records it.
func (m *Machine) addAnswer(sg *subgoal, inst term.Term, cl *Clause) {
	if sg.complete {
		// A completed table is frozen: its consumer records are gone, so
		// a late answer would be silently unobservable.
		m.throwf("internal: answer for completed table %v", sg.goal)
	}
	if m.AnswerAbstraction != nil {
		inst = m.AnswerAbstraction(term.Resolve(inst))
	}
	// Count answer derivations toward the context poll: per-answer cost
	// grows with answer size, so polling on solveG entries alone lets
	// cancellation latency grow without bound on divergent programs.
	if m.steps++; m.steps >= ctxCheckInterval {
		m.steps = 0
		m.checkCtx()
	}
	// Dedup through the table index: a trie walk (allocation-free on the
	// duplicate path, the hottest case) or a canonical-string map probe.
	var charge, nodes int
	var leaf *term.TrieNode
	var key string
	if sg.ansTrie != nil {
		var newNodes int
		leaf, newNodes = sg.ansTrie.Insert(inst)
		if _, dup := leaf.Value(); dup {
			if m.tracer != nil {
				m.tracer.Emit(obs.EvAnswerDup, sg.pred.Indicator, 0)
			}
			return
		}
		charge, nodes = newNodes*term.TrieNodeBytes, newNodes
	} else {
		key = term.Canonical(inst)
		if _, dup := sg.answerKeys[key]; dup {
			if m.tracer != nil {
				m.tracer.Emit(obs.EvAnswerDup, sg.pred.Indicator, 0)
			}
			return
		}
		charge = len(key)
	}
	if m.stats.Answers >= m.Limits.maxAnswers() {
		m.throwErr(fmt.Errorf("%w (%d)", ErrAnswerLimit, m.Limits.maxAnswers()))
	}
	var just *Just
	if m.Provenance {
		just = m.recordJust(sg, cl)
		sg.justs = append(sg.justs, just)
	}
	if leaf != nil {
		// The answer-trie leaf doubles as the dedup presence mark and
		// the justification anchor (nil value with provenance off).
		leaf.SetValue(just)
	} else {
		sg.answerKeys[key] = struct{}{}
	}
	detached := term.Rename(inst, nil) // Rename follows bindings
	sg.answers = append(sg.answers, detached)
	sg.answersGnd = append(sg.answersGnd, term.IsGround(detached))
	m.stats.Answers++
	m.stats.AnswerBytes += charge
	m.stats.TableBytes += charge
	m.stats.TableNodes += nodes
	if m.tracer != nil {
		m.tracer.Emit(obs.EvAnswerNew, sg.pred.Indicator, charge)
		if nodes > 0 {
			m.tracer.Emit(obs.EvTableNodes, sg.pred.Indicator, nodes)
		}
	}
}

// TableDump is a snapshot of one call-table entry, used by the analyses'
// collection phase: the recorded call gives the input (call) pattern and
// the answers give the output (success) patterns — the paper's "since
// the calls are anyway recorded, we do not have to pay an additional
// price for obtaining input modes".
type TableDump struct {
	Call     term.Term
	Answers  []term.Term
	Complete bool
}

// sortedSubgoals returns the (optionally indicator-filtered) table
// entries sorted by canonical call key — the historical iteration order
// of the string-keyed map, preserved under both implementations so
// collection phases see answers in a stable order. Cold path: dumps run
// once per analysis, after solving.
func (m *Machine) sortedSubgoals(indicator string) []*subgoal {
	var sgs []*subgoal
	for _, sg := range m.subgoals {
		if indicator == "" || sg.pred.Indicator == indicator {
			sgs = append(sgs, sg)
		}
	}
	sort.Slice(sgs, func(i, j int) bool {
		return m.callKey(sgs[i]) < m.callKey(sgs[j])
	})
	return sgs
}

// callKey returns the canonical call key of a table entry, computing it
// on demand under the trie implementation (which stores no strings).
func (m *Machine) callKey(sg *subgoal) string {
	if sg.key == "" {
		sg.key = term.Canonical(sg.goal)
	}
	return sg.key
}

// DumpTables returns snapshots of all call-table entries for the
// predicate with the given indicator ("name/arity"), sorted by call
// key. With an empty indicator it returns every entry.
func (m *Machine) DumpTables(indicator string) []TableDump {
	sgs := m.sortedSubgoals(indicator)
	out := make([]TableDump, 0, len(sgs))
	for _, sg := range sgs {
		out = append(out, TableDump{
			Call:     sg.goal,
			Answers:  append([]term.Term{}, sg.answers...),
			Complete: sg.complete,
		})
	}
	return out
}

// TableSpace returns the table-space measure of the call and answer
// tables, the analogue of the paper's "Table space (bytes)" column:
// canonical key bytes under TablesStringMap, allocated trie nodes times
// term.TrieNodeBytes under TablesTrie. It always equals
// CallSpace() + AnswerSpace().
func (m *Machine) TableSpace() int { return m.stats.TableBytes }

// CallSpace returns the table space charged to call-table keys.
func (m *Machine) CallSpace() int { return m.stats.CallBytes }

// AnswerSpace returns the table space charged to answer-table keys.
func (m *Machine) AnswerSpace() int { return m.stats.AnswerBytes }

// TableNodes returns the number of trie nodes backing the call and
// answer tables (0 under TablesStringMap).
func (m *Machine) TableNodes() int { return m.stats.TableNodes }

// DumpTablesString renders all tables for debugging and the cmd/xlp tool.
func (m *Machine) DumpTablesString() string {
	var sb strings.Builder
	for _, sg := range m.sortedSubgoals("") {
		sb.WriteString(sg.goal.String())
		if sg.complete {
			sb.WriteString("  [complete]\n")
		} else {
			sb.WriteString("  [incomplete]\n")
		}
		for _, a := range sg.answers {
			sb.WriteString("  ")
			sb.WriteString(a.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
