package engine

import (
	"errors"
	"testing"

	"xlp/internal/obs"
	"xlp/internal/term"
)

const statsProg = `
	:- table path/2.
	edge(a, b). edge(b, c). edge(c, a). edge(c, d).
	path(X, Y) :- edge(X, Y).
	path(X, Y) :- path(X, Z), edge(Z, Y).
	start(X) :- atom(X).
	go(Y) :- start(a), path(a, Y).
	:- table reach/2.
	reach(X, Y) :- edge(X, Y).
	reach(X, Y) :- edge(X, Z), reach(Z, Y).
`

// statsGE reports whether every counter of a is >= the counter of b.
func statsGE(a, b Stats) bool {
	return a.Resolutions >= b.Resolutions &&
		a.BuiltinCalls >= b.BuiltinCalls &&
		a.Subgoals >= b.Subgoals &&
		a.Answers >= b.Answers &&
		a.ProducerRuns >= b.ProducerRuns &&
		a.ProducerPasses >= b.ProducerPasses &&
		a.Suspensions >= b.Suspensions &&
		a.Resumptions >= b.Resumptions &&
		a.TableBytes >= b.TableBytes
}

func TestStatsCopySemantics(t *testing.T) {
	m := New()
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("go(Y)"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Answers == 0 || st.Subgoals == 0 {
		t.Fatalf("expected non-trivial stats, got %+v", st)
	}
	st.Answers = -1
	st.TableBytes = -1
	if got := m.Stats(); got.Answers <= 0 || got.TableBytes <= 0 {
		t.Fatalf("mutating the returned Stats leaked into the machine: %+v", got)
	}
}

func TestStatsMonotoneAcrossSolves(t *testing.T) {
	m := New()
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	prev := m.Stats()
	for _, q := range []string{"path(a, Y)", "path(b, Y)", "go(Y)", "path(a, Y)"} {
		if _, err := m.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cur := m.Stats()
		if !statsGE(cur, prev) {
			t.Fatalf("counters regressed after %s: %+v -> %+v", q, prev, cur)
		}
		prev = cur
	}
}

func TestStatsMonotoneAcrossCallAbstraction(t *testing.T) {
	m := New()
	// Most-general call abstraction (the depthk entry mode): every
	// tabled call is folded into one open table per predicate.
	m.CallAbstraction = func(call term.Term) term.Term {
		name, args, ok := term.FunctorArity(call)
		if !ok || len(args) == 0 {
			return call
		}
		fresh := make([]term.Term, len(args))
		for i := range fresh {
			fresh[i] = term.NewVar("C")
		}
		return term.NewCompound(name, fresh...)
	}
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	prev := m.Stats()
	for _, q := range []string{"path(a, Y)", "path(b, Y)", "path(c, Y)"} {
		if _, err := m.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cur := m.Stats()
		if !statsGE(cur, prev) {
			t.Fatalf("counters regressed after %s: %+v -> %+v", q, prev, cur)
		}
		prev = cur
	}
	// All calls were abstracted to one most-general path/2 table.
	if st := m.Stats(); st.Subgoals != 1 {
		t.Fatalf("CallAbstraction should fold calls into one subgoal, got %d", st.Subgoals)
	}
}

func TestStatsMonotoneAcrossLimitAbort(t *testing.T) {
	m := New()
	m.Limits.MaxAnswers = 3
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	_, err := m.Query("path(a, Y)")
	if !errors.Is(err, ErrAnswerLimit) {
		t.Fatalf("expected ErrAnswerLimit, got %v", err)
	}
	after := m.Stats()
	if !statsGE(after, before) {
		t.Fatalf("counters regressed across a limit abort: %+v -> %+v", before, after)
	}
	if after.Answers > 3 {
		t.Fatalf("answer counter overran its limit: %d", after.Answers)
	}
	// The abort leaves the counters usable: a fresh machine-level reset
	// re-derives from zero and stays monotone within the new run.
	m.ResetTables()
	m.Limits.MaxAnswers = 0
	if _, err := m.Query("path(a, Y)"); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(); got.Answers == 0 {
		t.Fatalf("post-abort run recorded no answers: %+v", got)
	}
}

// TestPerPredCountersSumToGlobals checks that the tracer's per-predicate
// counters partition the machine's global counters exactly.
func TestPerPredCountersSumToGlobals(t *testing.T) {
	m := New()
	tr := obs.NewTrace(0)
	m.SetTracer(tr)
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"go(Y)", "path(b, W)", "reach(a, W)"} {
		if _, err := m.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	st := m.Stats()
	if st.Suspensions == 0 || st.Resumptions == 0 {
		t.Fatalf("workload exercised no suspension: %+v", st)
	}
	var sum obs.PredCounters
	for _, pc := range tr.PredStats() {
		sum.Subgoals += pc.Subgoals
		sum.Answers += pc.Answers
		sum.Resolutions += pc.Resolutions
		sum.ProducerRuns += pc.ProducerRuns
		sum.ProducerPasses += pc.ProducerPasses
		sum.Suspensions += pc.Suspensions
		sum.Resumptions += pc.Resumptions
		sum.Completions += pc.Completions
		sum.TableBytes += pc.TableBytes
	}
	if sum.Subgoals != st.Subgoals {
		t.Errorf("subgoals: per-pred sum %d != global %d", sum.Subgoals, st.Subgoals)
	}
	if sum.Answers != st.Answers {
		t.Errorf("answers: per-pred sum %d != global %d", sum.Answers, st.Answers)
	}
	if sum.Resolutions != st.Resolutions {
		t.Errorf("resolutions: per-pred sum %d != global %d", sum.Resolutions, st.Resolutions)
	}
	if sum.ProducerRuns != st.ProducerRuns {
		t.Errorf("producer runs: per-pred sum %d != global %d", sum.ProducerRuns, st.ProducerRuns)
	}
	if sum.ProducerPasses != st.ProducerPasses {
		t.Errorf("producer passes: per-pred sum %d != global %d", sum.ProducerPasses, st.ProducerPasses)
	}
	if sum.Suspensions != st.Suspensions {
		t.Errorf("suspensions: per-pred sum %d != global %d", sum.Suspensions, st.Suspensions)
	}
	if sum.Resumptions != st.Resumptions {
		t.Errorf("resumptions: per-pred sum %d != global %d", sum.Resumptions, st.Resumptions)
	}
	if sum.TableBytes != st.TableBytes {
		t.Errorf("table bytes: per-pred sum %d != global %d", sum.TableBytes, st.TableBytes)
	}
	// Every subgoal was completed (the queries terminate), so the
	// completion events must match the subgoal count.
	if sum.Completions != st.Subgoals {
		t.Errorf("completions %d != subgoals %d", sum.Completions, st.Subgoals)
	}
}

// TestPerPredCountersAcrossLimitAbort aborts an evaluation while
// consumers are suspended and checks that the scheduler counters stay
// monotone and the tracer's per-predicate counters still partition the
// global ones.
func TestPerPredCountersAcrossLimitAbort(t *testing.T) {
	m := New()
	tr := obs.NewTrace(0)
	m.SetTracer(tr)
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("path(b, W)"); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()
	// reach(c, _) suspends on reach(a, _) after the fifth new answer;
	// the limit trips at the seventh, while the cycle is still open.
	m.Limits.MaxAnswers = before.Answers + 6
	if _, err := m.Query("reach(a, W)"); !errors.Is(err, ErrAnswerLimit) {
		t.Fatalf("expected ErrAnswerLimit, got %v", err)
	}
	after := m.Stats()
	if !statsGE(after, before) {
		t.Fatalf("counters regressed across a limit abort: %+v -> %+v", before, after)
	}
	if after.Suspensions == before.Suspensions {
		t.Fatalf("abort came before any suspension: %+v", after)
	}
	var susp, res, passes int
	for _, pc := range tr.PredStats() {
		susp += pc.Suspensions
		res += pc.Resumptions
		passes += pc.ProducerPasses
	}
	if susp != after.Suspensions || res != after.Resumptions || passes != after.ProducerPasses {
		t.Fatalf("per-pred sums (%d suspensions, %d resumptions, %d passes) != globals %+v",
			susp, res, passes, after)
	}
}

// TestTableSpacePartition checks the table-space accounting invariants
// of the answer trie, the engine's table store (the subtest is named for
// it): the global charge partitions exactly between call keys and answer
// keys, the charge is exactly the trie node count at TrieNodeBytes
// each, and the tracer's per-predicate node counters partition the
// global node count.
func TestTableSpacePartition(t *testing.T) {
	t.Run("trie", func(t *testing.T) {
		m := New()
		tr := obs.NewTrace(0)
		m.SetTracer(tr)
		if err := m.Consult(statsProg); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"go(Y)", "path(b, W)"} {
			if _, err := m.Query(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		st := m.Stats()
		if st.TableBytes == 0 || st.CallBytes == 0 || st.AnswerBytes == 0 || st.TableNodes == 0 {
			t.Fatalf("trivial accounting: %+v", st)
		}
		if st.CallBytes+st.AnswerBytes != st.TableBytes {
			t.Errorf("partition broken: call %d + answer %d != total %d",
				st.CallBytes, st.AnswerBytes, st.TableBytes)
		}
		if m.TableSpace() != st.TableBytes || m.CallSpace() != st.CallBytes ||
			m.AnswerSpace() != st.AnswerBytes || m.TableNodes() != st.TableNodes {
			t.Errorf("accessors disagree with Stats: %+v", st)
		}
		if st.TableBytes != st.TableNodes*TrieNodeBytes {
			t.Errorf("trie charge %d != %d nodes * %d", st.TableBytes, st.TableNodes, TrieNodeBytes)
		}
		var nodeSum, byteSum int
		for _, pc := range tr.PredStats() {
			nodeSum += pc.TableNodes
			byteSum += pc.TableBytes
		}
		if nodeSum != st.TableNodes {
			t.Errorf("table nodes: per-pred sum %d != global %d", nodeSum, st.TableNodes)
		}
		if byteSum != st.TableBytes {
			t.Errorf("table bytes: per-pred sum %d != global %d", byteSum, st.TableBytes)
		}
	})
}

// TestTracerDisabledByNil checks SetTracer(nil) turns tracing off again.
func TestTracerDisabledByNil(t *testing.T) {
	m := New()
	tr := obs.NewTrace(0)
	m.SetTracer(tr)
	if err := m.Consult(statsProg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query("path(a, Y)"); err != nil {
		t.Fatal(err)
	}
	seen := len(tr.Events())
	if seen == 0 {
		t.Fatal("enabled tracer saw no events")
	}
	m.SetTracer(nil)
	m.ResetTables()
	if _, err := m.Query("path(a, Y)"); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != seen {
		t.Fatalf("disabled tracer still receiving events: %d -> %d", seen, len(tr.Events()))
	}
}
