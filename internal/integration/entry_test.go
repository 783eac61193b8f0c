package integration

import (
	"strings"
	"testing"

	"xlp/internal/analysis"
	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// entryProgram has a main/1 entry, a cone below it, and a predicate
// outside the cone.
const entryProgram = `
main(X) :- app([a], [b], X), len(X, _).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
dead(X) :- app(X, X, _).
`

// quotedProgram names its predicates with a quoted atom and a symbol
// atom, which the tools print unquoted ("F/1", "++/3").
const quotedProgram = `
'F'(X) :- '++'([a], [b], X).
'++'([], L, L).
'++'([H|T], L, [H|R]) :- '++'(T, L, R).
dead(X) :- '++'(X, X, _).
`

// quotedFunctions is quotedProgram's shape in the functional language.
const quotedFunctions = `'F'(X, Y) = '++'(X, Y).
'++'(X, Y) = if(X =:= 0, Y, '++'(X - 1, Y + 1)).
dead(X) = X.
`

// domainRun is one tabled domain on a program with an entry
// predicate; run returns its report and its wire form.
type domainRun struct {
	name      string
	src       string
	spellings []string // entries that all select the one entry predicate
	run       func(src string, opts analysis.Options) (*analysis.Report, *service.Response, error)
}

func domainRuns(t *testing.T) []domainRun {
	t.Helper()
	mergesort, err := corpus.Get("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	runProp := func(src string, o analysis.Options) (*analysis.Report, *service.Response, error) {
		a, err := prop.Analyze(src, o)
		if err != nil {
			return nil, nil, err
		}
		return &a.Report, service.FromGroundness(a), nil
	}
	runStrict := func(src string, o analysis.Options) (*analysis.Report, *service.Response, error) {
		a, err := strict.Analyze(src, o)
		if err != nil {
			return nil, nil, err
		}
		return &a.Report, service.FromStrictness(a), nil
	}
	runDepthK := func(src string, o analysis.Options) (*analysis.Report, *service.Response, error) {
		a, err := depthk.Analyze(src, o)
		if err != nil {
			return nil, nil, err
		}
		return &a.Report, service.FromDepthK(a), nil
	}
	return []domainRun{
		{"prop", entryProgram, []string{"main(X)", "main/1", "main"}, runProp},
		{"strict", mergesort.Source, []string{"merge(X, Y)", "merge/2", "merge"}, runStrict},
		{"depthk", entryProgram, []string{"main(X)", "main/1", "main"}, runDepthK},
		{"prop quoted", quotedProgram, []string{"'F'(X)", "'F'/1", "F/1", "'F'"}, runProp},
		{"strict quoted", quotedFunctions, []string{"'F'(X, Y)", "'F'/2", "F/2", "'F'"}, runStrict},
		{"strict symbolic", quotedFunctions, []string{"'++'(X, Y)", "'++'/2", "++/2", "'++'"}, runStrict},
		{"depthk symbolic", quotedProgram, []string{"'++'(X, Y, Z)", "'++'/3", "++/3", "'++'"}, runDepthK},
	}
}

// TestEntrySpellingsAgree: every domain reads an entry the same way — a
// goal, its indicator (quoted or as the tools print it) and its bare
// name select the same predicate, so within a domain and slice setting
// the spellings give equal results and equal engine counters, and the
// run reaches the entry. An entry that names nothing defined fails the
// run with an error naming it.
func TestEntrySpellingsAgree(t *testing.T) {
	for _, d := range domainRuns(t) {
		for _, slice := range []bool{false, true} {
			var want string
			for _, entry := range d.spellings {
				_, resp, err := d.run(d.src, analysis.Options{Entry: []string{entry}, Slice: slice})
				if err != nil {
					t.Fatalf("%s entry %q slice=%v: %v", d.name, entry, slice, err)
				}
				if resp.Engine.Subgoals == 0 {
					t.Errorf("%s entry %q slice=%v: analyzed nothing", d.name, entry, slice)
				}
				got := counterRow("", resp)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s slice=%v: entry %q differs from %q\n got:%s want:%s", d.name, slice, entry, d.spellings[0], got, want)
				}
			}
			_, _, err := d.run(d.src, analysis.Options{Entry: []string{"nosuch"}, Slice: slice})
			if err == nil || !strings.Contains(err.Error(), `entry "nosuch"`) {
				t.Errorf("%s slice=%v: unknown entry gave %v, want an error naming it", d.name, slice, err)
			}
		}
	}
}

// TestDepthKReachableUnderEntry: an entry-restricted depth-k run reports
// a predicate outside the entry's cone as unreachable, the way
// groundness does, and an exhaustive run reaches every predicate.
func TestDepthKReachableUnderEntry(t *testing.T) {
	reachable := func(opts analysis.Options) map[string]bool {
		a, err := depthk.Analyze(entryProgram, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, p := range service.FromDepthK(a).Predicates {
			out[p.Indicator] = p.Reachable
		}
		return out
	}
	for _, slice := range []bool{false, true} {
		got := reachable(analysis.Options{K: 1, Entry: []string{"main/1"}, Slice: slice})
		for ind, want := range map[string]bool{"main/1": true, "app/3": true, "len/2": true, "dead/1": false} {
			if got[ind] != want {
				t.Errorf("slice=%v: %s reachable=%v, want %v", slice, ind, got[ind], want)
			}
		}
	}
	for ind, r := range reachable(analysis.Options{K: 1}) {
		if !r {
			t.Errorf("exhaustive run: %s unreachable", ind)
		}
	}
}

// TestPreprocTimeCoversParse: every domain times preprocessing as
// parse + transform + load, on the clock its timeline records, so the
// report's three durations add up to the timeline's phases.
func TestPreprocTimeCoversParse(t *testing.T) {
	for _, d := range domainRuns(t) {
		tl := obs.NewTimeline()
		rep, _, err := d.run(d.src, analysis.Options{Timeline: tl})
		if err != nil {
			t.Fatal(err)
		}
		if rep.PreprocTime < tl.Get("parse") {
			t.Errorf("%s: PreprocTime %v < parse phase %v", d.name, rep.PreprocTime, tl.Get("parse"))
		}
		if want := tl.Get("parse") + tl.Get("transform") + tl.Get("load"); rep.PreprocTime != want {
			t.Errorf("%s: PreprocTime %v, phases parse+transform+load %v", d.name, rep.PreprocTime, want)
		}
		if rep.Total() != tl.Total() {
			t.Errorf("%s: Total %v, timeline %v", d.name, rep.Total(), tl.Total())
		}
	}
}
