package main

// `xlp why` explains tabled answers: it runs an analysis with the
// engine's justification recorder enabled and prints the derivation DAG
// of a predicate's recorded answers — which clause produced each answer
// and which premise answers that derivation consumed, down to the
// facts. The default output is an indented text tree; -format json and
// -format dot feed tooling (dot renders with Graphviz).

import (
	"fmt"
	"io"

	"xlp/internal/analysis"
	"xlp/internal/corpus"
	"xlp/internal/prop"
	"xlp/internal/strict"
)

// runWhy implements `xlp why [flags] prog`.
func runWhy(args []string, stdout, stderr io.Writer) int {
	af := newAnalyzeFlags("why", false)
	pred := af.fs.String("pred", "", "predicate to explain: 'p/n' or a bare name (default: first predicate with answers)")
	format := af.fs.String("format", "text", "output format: text, json, or dot")
	flLang := af.fs.Bool("fl", false, "treat the program as functional (strictness analysis instead of groundness)")
	maxNodes := af.fs.Int("max-nodes", 0, "cap on derivation-graph nodes (0 = default)")
	af.fs.SetOutput(stderr)
	if err := af.fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "dot":
	default:
		fmt.Fprintf(stderr, "xlp: unknown -format %q (want text, json, or dot)\n", *format)
		return 2
	}
	mode, err := af.mode()
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %v\n", err)
		return 2
	}
	src, name, ok := af.source(stderr)
	if !ok {
		return 2
	}
	if af.bench != "" && !*flLang {
		// Benchmarks know their own language; honor it so
		// `xlp why -bench fft` just works.
		if p, err := corpus.Get(af.bench); err == nil && p.Kind == corpus.Functional {
			*flLang = true
		}
	}

	// Run the analysis with provenance on and keep the machine alive
	// for explanation.
	opts := analysis.Options{Mode: mode, Provenance: true}
	if af.entry != "" {
		opts.Entry = []string{af.entry}
	}
	var rep *analysis.Report
	if *flLang {
		a, err := strict.Analyze(src, opts)
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %s: %v\n", name, err)
			return 1
		}
		rep = &a.Report
	} else {
		a, err := prop.Analyze(src, opts)
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %s: %v\n", name, err)
			return 1
		}
		rep = &a.Report
	}

	d, err := rep.Explain(*pred, *maxNodes)
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %s: %v\n", name, err)
		return 1
	}
	switch *format {
	case "json":
		err = d.WriteJSON(stdout)
	case "dot":
		err = d.WriteDOT(stdout)
	default:
		err = d.WriteText(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %v\n", err)
		return 2
	}
	return 0
}
