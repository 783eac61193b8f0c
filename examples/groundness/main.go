// Groundness analysis of a logic program over the Prop domain — the
// paper's §3.1 analysis, on its own worked example (append, Figure 2)
// and on quicksort, goal-directed from a ground call.
//
//	go run ./examples/groundness
package main

import (
	"fmt"
	"log"

	"xlp"
)

const program = `
	qsort([], []).
	qsort([X|Xs], S) :-
		partition(Xs, X, L, G),
		qsort(L, SL),
		qsort(G, SG),
		append(SL, [X|SG], S).

	partition([], _, [], []).
	partition([Y|Ys], X, [Y|L], G) :- Y =< X, partition(Ys, X, L, G).
	partition([Y|Ys], X, L, [Y|G]) :- Y > X, partition(Ys, X, L, G).

	append([], Ys, Ys).
	append([X|Xs], Ys, [X|Zs]) :- append(Xs, Ys, Zs).

	main :- qsort([3, 1, 2], S), append(S, S, _).
`

func main() {
	// Open-call analysis: output groundness of every predicate.
	a, err := xlp.AnalyzeGroundness(program, xlp.GroundnessOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("output groundness (success formulas over argument positions):")
	for _, r := range xlp.Sorted(a.Results) {
		fmt.Printf("  %-14s %s\n", r.Indicator, r.FormatSuccess())
	}

	// Goal-directed analysis from main/0: the tabled engine's call
	// tables give the input groundness of every reachable call for free.
	g, err := xlp.AnalyzeGroundness(program, xlp.GroundnessOptions{
		Entry: []string{"main"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngoal-directed from main/0 (g = ground at call, ng = non-ground, ? = unknown):")
	for _, r := range xlp.Sorted(g.Results) {
		if !r.Reachable {
			continue
		}
		fmt.Printf("  %-14s", r.Indicator)
		for _, c := range r.Calls {
			fmt.Printf(" %s", c)
		}
		fmt.Println()
	}
	fmt.Printf("\nphases: preprocess %v, analysis %v, collection %v; tables %d bytes\n",
		a.PreprocTime, a.AnalysisTime, a.CollectionTime, a.TableBytes)
}
