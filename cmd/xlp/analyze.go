package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xlp/internal/analysis"
	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// version is stamped via go build -ldflags "-X main.version=v1.2.3";
// empty falls back to the toolchain-embedded module version.
var version string

// analyzeFlags are the observability knobs shared by the analyze
// subcommands.
type analyzeFlags struct {
	fs       *flag.FlagSet
	entry    string
	k        int
	loadMode string
	bench    string
	phases   bool
	trace    string
	events   string
	top      int
}

func newAnalyzeFlags(name string, withK bool) *analyzeFlags {
	af := &analyzeFlags{fs: flag.NewFlagSet("xlp "+name, flag.ContinueOnError)}
	af.fs.StringVar(&af.entry, "entry", "", "entry point for goal-directed analysis: an indicator (main/1), a bare name (main, every arity) or a goal (main(X)); one that selects nothing defined is an error")
	if withK {
		af.fs.IntVar(&af.k, "k", 2, "term-depth bound")
	}
	af.fs.StringVar(&af.loadMode, "mode", "", "clause loading mode: dynamic (default) or closure")
	af.fs.StringVar(&af.bench, "bench", "", "analyze a named corpus benchmark instead of a file")
	af.fs.BoolVar(&af.phases, "phases", false, "print the phase-timing table (parse/transform/load/solve/collect)")
	af.fs.StringVar(&af.trace, "trace", "", "write a Chrome trace_event file (open in chrome://tracing)")
	af.fs.StringVar(&af.events, "events", "", "write engine events as JSONL")
	af.fs.IntVar(&af.top, "top", 0, "print the n largest tables by canonical bytes")
	return af
}

// mode resolves -mode to the engine's LoadMode; an unknown name is
// reported via the error.
func (af *analyzeFlags) mode() (engine.LoadMode, error) {
	switch af.loadMode {
	case "", "dynamic":
		return engine.LoadDynamic, nil
	case "closure":
		return engine.ModeClosure, nil
	default:
		return engine.LoadDynamic, fmt.Errorf("unknown -mode %q (want dynamic or closure)", af.loadMode)
	}
}

// tracer returns a Trace when any trace-consuming flag is set; tracing
// stays off (nil, zero engine overhead) otherwise.
func (af *analyzeFlags) tracer() *obs.Trace {
	if af.trace == "" && af.events == "" && af.top <= 0 {
		return nil
	}
	return obs.NewTrace(obs.DefaultTraceCap)
}

// source resolves the program text from -bench or the positional file.
func (af *analyzeFlags) source(stderr io.Writer) (src, name string, ok bool) {
	if af.bench != "" {
		p, err := corpus.Get(af.bench)
		if err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return "", "", false
		}
		return p.Source, af.bench, true
	}
	args := af.fs.Args()
	if len(args) != 1 {
		fmt.Fprintf(stderr, "usage: xlp %s [flags] prog (or -bench name)\n", af.fs.Name())
		return "", "", false
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %v\n", err)
		return "", "", false
	}
	return string(data), args[0], true
}

// report prints the observability outputs: phase table (checked against
// independent wall time), trace exports, and the top-tables view.
func (af *analyzeFlags) report(stdout, stderr io.Writer, tl *obs.Timeline, tr *obs.Trace, wall time.Duration) int {
	if af.phases {
		tl.WriteTable(stdout)
		fmt.Fprintf(stdout, "%-12s %12.3fms\n", "wall", float64(wall.Nanoseconds())/1e6)
	}
	if af.top > 0 && tr != nil {
		fmt.Fprintln(stdout, "top tables:")
		for _, pc := range tr.TopTables(af.top) {
			fmt.Fprintf(stdout, "  %-24s %8d bytes  %6d subgoals  %8d answers  %6d dups  %10d resolutions\n",
				pc.Pred, pc.TableBytes, pc.Subgoals, pc.Answers, pc.Duplicates, pc.Resolutions)
		}
	}
	if af.trace != "" && tr != nil {
		if err := writeFileWith(af.trace, func(w io.Writer) error { return tr.WriteChromeTrace(w, tl) }); err != nil {
			fmt.Fprintf(stderr, "xlp: writing %s: %v\n", af.trace, err)
			return 2
		}
		fmt.Fprintf(stdout, "trace: %s (%d events, %d dropped)\n", af.trace, len(tr.Events()), tr.Dropped())
	}
	if af.events != "" && tr != nil {
		if err := writeFileWith(af.events, tr.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "xlp: writing %s: %v\n", af.events, err)
			return 2
		}
	}
	return 0
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAnalyze dispatches the groundness/strictness/depthk subcommands.
func runAnalyze(kind string, args []string, stdout, stderr io.Writer) int {
	af := newAnalyzeFlags(kind, kind == "depthk")
	asJSON := af.fs.Bool("json", false, "print the analysis-service response JSON instead of the summary line")
	af.fs.SetOutput(stderr)
	if err := af.fs.Parse(args); err != nil {
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
	tl := obs.NewTimeline()
	tr := af.tracer()
	var tracer obs.EngineTracer
	if tr != nil {
		tracer = tr
	}

	opts := analysis.Options{Mode: mode, K: af.k, Timeline: tl, Tracer: tracer}
	if af.entry != "" {
		opts.Entry = []string{af.entry}
	}
	start := time.Now()
	var summary string
	var resp *service.Response
	switch kind {
	case "groundness":
		var a *prop.Analysis
		if a, err = prop.Analyze(src, opts); err == nil {
			summary = fmt.Sprintf("%s: Prop groundness: %d predicates, %d subgoals, %d answers, tables %d bytes",
				name, len(a.Results), a.EngineStats.Subgoals, a.EngineStats.Answers, a.TableBytes)
			resp = service.FromGroundness(a)
		}
	case "strictness":
		var a *strict.Analysis
		if a, err = strict.Analyze(src, opts); err == nil {
			summary = fmt.Sprintf("%s: strictness: %d functions, %d subgoals, %d answers, tables %d bytes",
				name, len(a.Results), a.EngineStats.Subgoals, a.EngineStats.Answers, a.TableBytes)
			resp = service.FromStrictness(a)
		}
	case "depthk":
		var a *depthk.Analysis
		if a, err = depthk.Analyze(src, opts); err == nil {
			summary = fmt.Sprintf("%s: depth-%d groundness: %d predicates, %d subgoals, %d answers, tables %d bytes",
				name, a.K, len(a.Results), a.EngineStats.Subgoals, a.EngineStats.Answers, a.TableBytes)
			resp = service.FromDepthK(a)
		}
	default:
		fmt.Fprintf(stderr, "xlp: unknown analysis %q\n", kind)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "xlp: %v\n", err)
		return 1
	}
	wall := time.Since(start)

	if *asJSON {
		// The response struct xlpd returns, so CLI and server output are
		// schema-identical.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fmt.Fprintf(stderr, "xlp: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintln(stdout, summary)
	}
	return af.report(stdout, stderr, tl, tr, wall)
}

// runVersion implements "xlp version".
func runVersion(stdout io.Writer) int {
	fmt.Fprintln(stdout, "xlp", obs.Build(version))
	return 0
}
