package integration

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/engine"
	"xlp/internal/fl"
	"xlp/internal/strict"
	"xlp/internal/supptab"
	"xlp/internal/term"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTableBytesChargesRealStorage holds Stats.TableBytes to what a
// solve really leaves on the heap. Each answer is stored once, as its
// trie path, so the heap a solve keeps (tables, subgoal records, leaf
// lists, spilled edge maps) must stay within a small factor of
// TableNodes x TrieNodeBytes. A detached copy per answer doubles that
// factor and fails the test. The machine is loaded as strict.Analyze
// loads it (supplementary tabling on) and is kept alive across the
// measurement.
func TestTableBytesChargesRealStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the two largest strictness programs")
	}
	// Measured at 1.19 (strassen) and 1.22 (odprove); with a detached
	// copy of every answer the same programs measure 2.25 and 2.78.
	const lo, hi = 1.0, 1.5
	for _, name := range []string{"odprove", "strassen"} {
		p, err := corpus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := fl.Parse(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := strict.Transform(prog)
		if err != nil {
			t.Fatal(err)
		}
		st := supptab.Transform(tf.Clauses, 3)
		m := engine.New()
		strict.RegisterDemandOps(m)
		if err := m.ConsultTerms(st.Clauses); err != nil {
			t.Fatal(err)
		}
		m.Table(st.Tabled...)
		// strict.Analyze's goals, in its order: by function indicator.
		var inds []string
		for ind := range tf.SpPreds {
			inds = append(inds, ind)
		}
		sort.Strings(inds)
		var goals []term.Term
		for _, ind := range inds {
			sp := tf.SpPreds[ind]
			m.Table(sp)
			for _, d := range []term.Term{strict.DemandE, strict.DemandD} {
				goals = append(goals, openCall(sp, d))
			}
		}
		before := liveHeap()
		if err := m.SolveAll(goals); err != nil {
			t.Fatal(err)
		}
		grown := float64(liveHeap()) - float64(before)
		s := m.Stats()
		ratio := grown / float64(s.TableBytes)
		t.Logf("%s: heap grew %.1f MB over the solve; TableBytes %.1f MB (%d nodes x %d B); ratio %.2f",
			name, grown/1e6, float64(s.TableBytes)/1e6, s.TableNodes, engine.TrieNodeBytes, ratio)
		if ratio < lo || ratio > hi {
			t.Errorf("%s: heap growth is %.2f x TableBytes, want within [%.1f, %.1f]", name, ratio, lo, hi)
		}
		runtime.KeepAlive(m)
	}
}

// openCall is the call to sp ("name/arity") under demand d, with fresh
// variables for the function's arguments: strict.Analyze's goal.
func openCall(sp string, d term.Term) term.Term {
	i := strings.LastIndexByte(sp, '/')
	n, _ := strconv.Atoi(sp[i+1:])
	args := make([]term.Term, n)
	args[0] = d
	for j := 1; j < n; j++ {
		args[j] = term.NewVar("V")
	}
	return term.NewCompound(sp[:i], args...)
}
