// Command xlp is a small tabled-Prolog runner: it consults the given
// program files and answers queries, printing the call/answer tables on
// request. Its lint subcommand runs the object-program linter instead
// (undefined and unreachable predicates, singleton variables, untabled
// left recursion) without evaluating anything.
//
// Usage:
//
//	xlp [-tables] prog.pl ... -q 'goal(X, Y)'
//	xlp prog.pl            # read queries from stdin, one per line
//	xlp lint [-json] [-fl] [-entry p/n,...] prog.pl ...
//	xlp groundness|strictness|depthk [-mode m] [-json] [-phases] [-trace f] [-events f] [-top n] prog
//	xlp why [-pred p/n] [-format text|json|dot] [-fl] [-mode m] [-max-nodes n] prog
//	xlp compile [-dump] [-json] prog
//	xlp gen [-shape s] [-seed n] [-meta]
//	xlp difftest [-n N] [-seed S] [-shapes s,...] [-checks c,...] [-regressions dir]
//	xlp version
//
// gen emits one random, lint-clean object program (internal/randgen);
// difftest generates N programs and runs every applicable backend pair
// and metamorphic transform as a differential oracle, shrinking any
// disagreement to a minimal counterexample (exit 1 on findings).
//
// The analyze subcommands run one analyzer with observability attached:
// -json prints the analysis-service response (the schema xlpd returns),
// -phases prints the parse/transform/load/solve/collect wall-time table,
// -trace writes a Chrome trace_event file (chrome://tracing), -events
// writes the engine event stream as JSONL, and -top prints the
// predicates with the largest call and answer tables by table bytes.
//
// lint exits 0 when every file is clean (warnings allowed), 1 when any
// file has error-severity diagnostics, 2 on usage or I/O errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"xlp/internal/engine"
	"xlp/internal/term"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "lint":
			os.Exit(runLint(os.Args[2:], os.Stdout, os.Stderr))
		case "groundness", "strictness", "depthk":
			os.Exit(runAnalyze(os.Args[1], os.Args[2:], os.Stdout, os.Stderr))
		case "why":
			os.Exit(runWhy(os.Args[2:], os.Stdout, os.Stderr))
		case "compile":
			os.Exit(runCompile(os.Args[2:], os.Stdout, os.Stderr))
		case "gen":
			os.Exit(runGen(os.Args[2:], os.Stdout, os.Stderr))
		case "difftest":
			os.Exit(runDiffTest(os.Args[2:], os.Stdout, os.Stderr))
		case "version":
			os.Exit(runVersion(os.Stdout))
		}
	}
	query := flag.String("q", "", "query to run (default: read queries from stdin)")
	dumpTables := flag.Bool("tables", false, "dump call/answer tables after the query")
	max := flag.Int("n", 0, "stop after n solutions (0 = all)")
	flag.Parse()

	m := engine.New()
	for _, file := range flag.Args() {
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		if err := m.Consult(string(data)); err != nil {
			fatal(fmt.Errorf("%s: %w", file, err))
		}
	}

	run := func(q string) {
		sols, err := m.Query(q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			return
		}
		if len(sols) == 0 {
			fmt.Println("no.")
			return
		}
		for i, s := range sols {
			if *max > 0 && i >= *max {
				fmt.Printf("... (%d more)\n", len(sols)-i)
				break
			}
			fmt.Println(s.String())
		}
		fmt.Printf("yes. (%d solutions)\n", len(sols))
		if *dumpTables {
			fmt.Print(m.DumpTablesString())
		}
	}

	if *query != "" {
		run(*query)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("?- ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimSuffix(line, ".")
		if line == "" || line == "halt" {
			break
		}
		run(line)
		fmt.Print("?- ")
	}
	_ = term.Atom("")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xlp: %v\n", err)
	os.Exit(1)
}
