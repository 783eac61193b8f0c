package integration

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/fl"
	"xlp/internal/gaia"
	"xlp/internal/lint"
	"xlp/internal/prolog"
	"xlp/internal/prop"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// answerSet renders abstract answers as a sorted set of canonical forms.
func answerSet(answers []term.Term) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = term.Canonical(a)
	}
	sort.Strings(out)
	return out
}

// corpusEntry picks the analysis entry point of a logic benchmark: its
// main predicate when it defines one, its first-defined predicate
// otherwise.
func corpusEntry(t *testing.T, src string) string {
	t.Helper()
	clauses, err := prolog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	preds := lint.Predicates(clauses)
	if len(preds) == 0 {
		t.Fatal("no predicates")
	}
	for _, ind := range preds {
		if strings.HasPrefix(ind, "main/") {
			return ind
		}
	}
	return preds[0]
}

// TestPropSliceAgreementOnCorpus: goal-directed groundness analysis of
// the sliced program computes exactly the results of the same
// goal-directed run over the full program, for every logic benchmark —
// slicing changes cost, never answers.
func TestPropSliceAgreementOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			entry := corpusEntry(t, p.Source)
			fullRun, err := prop.Analyze(p.Source, prop.Options{Entry: []string{entry}})
			if err != nil {
				t.Fatalf("unsliced: %v", err)
			}
			sliced, err := prop.Analyze(p.Source, prop.Options{Entry: []string{entry}, Slice: true})
			if err != nil {
				t.Fatalf("sliced: %v", err)
			}
			if len(sliced.Results) != len(fullRun.Results) {
				t.Fatalf("result sets differ: sliced %d, unsliced %d",
					len(sliced.Results), len(fullRun.Results))
			}
			for ind, rf := range fullRun.Results {
				rs := sliced.Results[ind]
				if rs == nil {
					t.Errorf("%s missing from sliced results", ind)
					continue
				}
				if rs.Reachable != rf.Reachable {
					t.Errorf("%s: Reachable sliced=%v unsliced=%v", ind, rs.Reachable, rf.Reachable)
				}
				if !rs.Success.Equal(rf.Success) {
					t.Errorf("%s: success formulas differ: sliced %s, unsliced %s",
						ind, rs.FormatSuccess(), rf.FormatSuccess())
				}
				if fmt.Sprint(rs.Calls) != fmt.Sprint(rf.Calls) {
					t.Errorf("%s: call patterns differ: sliced %v, unsliced %v",
						ind, rs.Calls, rf.Calls)
				}
				if fmt.Sprint(rs.GroundArgs) != fmt.Sprint(rf.GroundArgs) {
					t.Errorf("%s: ground args differ", ind)
				}
			}
			if len(sliced.SlicedOut) == 0 && p.Name != "qsort" && p.Name != "queens" {
				t.Logf("note: nothing sliced out of %s from %s", p.Name, entry)
			}
		})
	}
}

// TestDepthKSliceAgreementOnCorpus: the same invariant for the depth-k
// analysis, entry-restricted.
func TestDepthKSliceAgreementOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.DepthKPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			entry := corpusEntry(t, p.Source)
			fullRun, err := depthk.Analyze(p.Source, depthk.Options{Entry: []string{entry}})
			if err != nil {
				t.Fatalf("unsliced: %v", err)
			}
			sliced, err := depthk.Analyze(p.Source, depthk.Options{Entry: []string{entry}, Slice: true})
			if err != nil {
				t.Fatalf("sliced: %v", err)
			}
			if len(sliced.Results) != len(fullRun.Results) {
				t.Fatalf("result sets differ: sliced %d, unsliced %d",
					len(sliced.Results), len(fullRun.Results))
			}
			for ind, rf := range fullRun.Results {
				rs := sliced.Results[ind]
				if rs == nil {
					t.Errorf("%s missing from sliced results", ind)
					continue
				}
				// Answers are compared as canonical sets: collection order
				// and variable numbering vary between runs.
				if fmt.Sprint(answerSet(rs.Answers)) != fmt.Sprint(answerSet(rf.Answers)) {
					t.Errorf("%s: answers differ:\nsliced   %s\nunsliced %s",
						ind, rs.Format(), rf.Format())
				}
				if fmt.Sprint(rs.GroundArgs) != fmt.Sprint(rf.GroundArgs) {
					t.Errorf("%s: ground args differ", ind)
				}
			}
		})
	}
}

// TestStrictSliceAgreementOnCorpus: the same invariant for strictness
// analysis of the functional benchmarks.
func TestStrictSliceAgreementOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.FuncPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := fl.Parse(p.Source)
			if err != nil {
				t.Fatal(err)
			}
			entry := prog.Order[0]
			for _, ind := range prog.Order {
				if strings.HasPrefix(ind, "main/") {
					entry = ind
					break
				}
			}
			fullRun, err := strict.Analyze(p.Source, strict.Options{Entry: []string{entry}})
			if err != nil {
				t.Fatalf("unsliced: %v", err)
			}
			sliced, err := strict.Analyze(p.Source, strict.Options{Entry: []string{entry}, Slice: true})
			if err != nil {
				t.Fatalf("sliced: %v", err)
			}
			if len(sliced.Results) != len(fullRun.Results) {
				t.Fatalf("result sets differ: sliced %d, unsliced %d",
					len(sliced.Results), len(fullRun.Results))
			}
			for ind, rf := range fullRun.Results {
				rs := sliced.Results[ind]
				if rs == nil {
					t.Errorf("%s missing from sliced results", ind)
					continue
				}
				if rs.String() != rf.String() {
					t.Errorf("%s: demands differ: sliced %s, unsliced %s", ind, rs, rf)
				}
			}
		})
	}
}

// TestGAIASliceAgreementOnCorpus: the special-purpose analyzer restricted
// to the entry cone computes the full run's formulas on every cone
// predicate.
func TestGAIASliceAgreementOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, p := range corpus.LogicPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			entry := corpusEntry(t, p.Source)
			fullRun, err := gaia.Analyze(p.Source)
			if err != nil {
				t.Fatalf("unsliced: %v", err)
			}
			sliced, err := gaia.AnalyzeEntries(context.Background(), p.Source, []string{entry})
			if err != nil {
				t.Fatalf("sliced: %v", err)
			}
			if len(sliced.Results) == 0 || len(sliced.Results) > len(fullRun.Results) {
				t.Fatalf("sliced result count %d out of range (full %d)",
					len(sliced.Results), len(fullRun.Results))
			}
			for ind, rs := range sliced.Results {
				rf := fullRun.Results[ind]
				if rf == nil {
					t.Errorf("%s analyzed in slice but not in full run", ind)
					continue
				}
				if !rs.Success.Equal(rf.Success) {
					t.Errorf("%s: success formulas differ", ind)
				}
			}
		})
	}
}
