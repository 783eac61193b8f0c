package difftest

import (
	"fmt"
	"sort"
	"strings"

	"xlp/internal/bddprop"
	"xlp/internal/depthk"
	"xlp/internal/gaia"
	"xlp/internal/prop"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// Result summaries. Each backend's analysis is flattened to a
// map[indicator]string capturing exactly the semantic content two runs
// must share (success truth table, per-argument groundness,
// reachability; demand vectors for strictness; canonical answer sets for
// depth-k and the engines). Cost fields (times, counts, table sizes) are
// deliberately excluded.

// propSummary flattens a Prop analysis, mapping indicators through
// rename (nil = identity).
func propSummary(a *prop.Analysis, rename map[string]string) map[string]string {
	out := map[string]string{}
	for ind, r := range a.Results {
		out[mapIndicator(ind, rename)] = fmt.Sprintf("success=%s ground=%v reach=%v",
			funRows(r.Success, r.Arity), r.GroundArgs, r.Reachable)
	}
	return out
}

// funRows renders a boolean function as its truth table over 2^arity rows.
func funRows(f interface{ Row(uint) bool }, arity int) string {
	if f == nil {
		return "nil"
	}
	var sb strings.Builder
	for row := 0; row < 1<<uint(arity); row++ {
		if f.Row(uint(row)) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// gaiaSummary flattens a GAIA analysis (success formulas only — GAIA
// computes goal-independent success patterns).
func gaiaSummary(a *gaia.Analysis) map[string]string {
	out := map[string]string{}
	for ind, r := range a.Results {
		out[ind] = "success=" + funRows(r.Success, r.Arity)
	}
	return out
}

// bddSummary flattens a BDD-Prop analysis by evaluating each ROBDD on
// every truth-table row.
func bddSummary(a *bddprop.Analysis) map[string]string {
	out := map[string]string{}
	for ind, r := range a.Results {
		var sb strings.Builder
		for row := 0; row < 1<<uint(r.Arity); row++ {
			if a.Manager.Eval(r.Success, uint(row)) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		out[ind] = "success=" + sb.String()
	}
	return out
}

// depthkSummary flattens a depth-k analysis: sorted canonical abstract
// answers, the ground-argument vector and reachability.
func depthkSummary(a *depthk.Analysis, rename map[string]string) map[string]string {
	out := map[string]string{}
	for ind, r := range a.Results {
		answers := make([]string, len(r.Answers))
		for i, t := range r.Answers {
			answers[i] = term.Canonical(t)
		}
		sort.Strings(answers)
		out[mapIndicator(ind, rename)] = fmt.Sprintf("answers=%s ground=%v reachable=%v",
			strings.Join(answers, " ; "), r.GroundArgs, r.Reachable)
	}
	return out
}

// strictSummary flattens a strictness analysis to the two demand
// vectors per function.
func strictSummary(a *strict.Analysis, rename map[string]string) map[string]string {
	out := map[string]string{}
	for ind, r := range a.Results {
		out[mapIndicator(ind, rename)] = fmt.Sprintf("e=%v d=%v", r.UnderE, r.UnderD)
	}
	return out
}

// answerSet canonicalizes a list of answer terms to a sorted,
// de-duplicated multiset-as-set string.
func answerSet(answers []term.Term) string {
	ss := make([]string, len(answers))
	for i, t := range answers {
		ss[i] = term.Canonical(t)
	}
	sort.Strings(ss)
	uniq := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			uniq = append(uniq, s)
		}
	}
	return strings.Join(uniq, " ; ")
}

// diffSummaries compares two backend summaries and reports the first few
// disagreements as a "mismatch:" error, or nil when identical.
// onlyShared restricts the comparison to indicators present on both
// sides (for backends that legitimately cover different predicate sets).
func diffSummaries(aName, bName string, a, b map[string]string, onlyShared bool) error {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, k := range sorted {
		av, aok := a[k]
		bv, bok := b[k]
		if !aok || !bok {
			if onlyShared {
				continue
			}
			diffs = append(diffs, fmt.Sprintf("%s: %s=%q %s=%q", k, aName, orMissing(av, aok), bName, orMissing(bv, bok)))
			continue
		}
		if av != bv {
			diffs = append(diffs, fmt.Sprintf("%s: %s=%q %s=%q", k, aName, av, bName, bv))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("... and %d more", len(diffs)-3))
	}
	return fmt.Errorf("mismatch: %s vs %s: %s", aName, bName, strings.Join(diffs, "; "))
}

func orMissing(v string, ok bool) string {
	if !ok {
		return "<missing>"
	}
	return v
}
