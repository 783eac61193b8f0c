// Strictness analysis of a lazy functional program by demand
// propagation — the paper's §3.2 analysis on its Figure 4 worked example
// plus a small stream-processing program. A compiler would use the
// results to evaluate strict arguments eagerly (call-by-value) without
// changing termination behavior.
//
//	go run ./examples/strictness
package main

import (
	"fmt"
	"log"

	"xlp"
)

const program = `
	% the paper's worked example (Figure 4)
	ap(nil, Ys) = Ys.
	ap(cons(X, Xs), Ys) = cons(X, ap(Xs, Ys)).

	% head retrieval is head-strict only
	hd(cons(X, Xs)) = X.

	% summing forces the whole spine and every element
	sum(nil) = 0.
	sum(cons(X, Xs)) = X + sum(Xs).

	% take is lazy in the stream beyond its prefix
	take(N, Xs) = if(N < 1, nil, takene(N, Xs)).
	takene(N, nil) = nil.
	takene(N, cons(X, Xs)) = cons(X, take(N - 1, Xs)).

	% an infinite stream: only usable because take/sum demand finitely
	nats(N) = cons(N, nats(N + 1)).

	main(K) = sum(take(K, nats(0))).
`

func main() {
	a, err := xlp.AnalyzeStrictness(program, xlp.StrictnessOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("demands guaranteed on each argument (n < d < e):")
	fmt.Println("  under e: result demanded in full;  under d: to head-normal form")
	for _, r := range xlp.Sorted(a.Results) {
		fmt.Printf("  %s\n", r)
	}

	fmt.Println("\nstrict arguments (safe to evaluate eagerly):")
	for _, r := range xlp.Sorted(a.Results) {
		for i := 0; i < r.Arity; i++ {
			if r.Strict(i) {
				fmt.Printf("  %s argument %d\n", r.Indicator, i+1)
			}
		}
	}
	fmt.Printf("\n%.0f source lines/second; tables %d bytes\n",
		a.LinesPerSecond(), a.TableBytes)
}
