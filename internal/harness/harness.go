// Package harness runs the paper's evaluation and renders its tables:
// Table 1 (Prop groundness on the tabled engine), Table 2 (declarative
// vs special-purpose analyzer), Table 3 (strictness analysis), Table 4
// (depth-k groundness), plus the quantitative claims of §4 and §7 as
// ablation tables (dynamic vs compiled loading, enumerative vs BDD
// representation, supplementary tabling, tabled vs bottom-up demand
// dataflow).
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"xlp/internal/bddprop"
	"xlp/internal/corpus"
	"xlp/internal/dataflow"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/prop"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// ms renders a duration in milliseconds with two decimals (the paper
// used seconds on 1995 hardware; milliseconds are this century's unit).
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*note: %s*\n", n)
	}
	fmt.Fprintln(w)
}

// Table1 reproduces "Performance of Prop-based groundness analysis":
// per-benchmark preprocessing/analysis/collection time, total, the
// compile-time increase ratio, and table space.
func Table1() (*Table, error) {
	t := &Table{
		Title: "Table 1: Performance of Prop-based groundness analysis (tabled engine)",
		Columns: []string{"Program", "Lines", "Preproc(ms)", "Analysis(ms)",
			"Collection(ms)", "Total(ms)", "Compile incr(%)", "Table space(B)"},
	}
	for _, p := range corpus.LogicPrograms() {
		a, err := prop.Analyze(p.Source, prop.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
		compile, err := measureCompile(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %v", p.Name, err)
		}
		incr := 100.0 * float64(a.Total()) / float64(compile)
		t.Rows = append(t.Rows, []string{
			p.Name, fmt.Sprint(p.Lines), ms(a.PreprocTime), ms(a.AnalysisTime),
			ms(a.CollectionTime), ms(a.Total()),
			fmt.Sprintf("%.1f", incr), fmt.Sprint(a.TableBytes),
		})
	}
	t.Notes = append(t.Notes,
		"compile increase = total analysis time / time to parse+load the program, closure-compiled, without analysis")
	return t, nil
}

// measureCompile times parsing + loading the program in closure-compiled
// mode — the baseline "compilation without analysis" of the paper's
// ratio.
func measureCompile(src string) (time.Duration, error) {
	t0 := time.Now()
	m := engine.New()
	m.Mode = engine.ModeClosure
	if err := m.Consult(src); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// Table2 reproduces the XSB-vs-GAIA comparison: total analysis time of
// the declarative tabled analyzer against the special-purpose abstract
// interpreter, on the same benchmarks.
func Table2() (*Table, error) {
	t := &Table{
		Title:   "Table 2: Declarative (tabled) analyzer vs special-purpose analyzer (GAIA-style)",
		Columns: []string{"Program", "Tabled(ms)", "Special-purpose(ms)", "Ratio"},
	}
	for _, p := range corpus.LogicPrograms() {
		a, err := prop.Analyze(p.Source, prop.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: prop: %v", p.Name, err)
		}
		g, err := gaia.Analyze(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: gaia: %v", p.Name, err)
		}
		// Cross-validate: identical results (the paper: "The results
		// obtained on the two systems are identical").
		for ind, pr := range a.Results {
			gr := g.Results[ind]
			if gr != nil && !gr.Success.Equal(pr.Success) {
				return nil, fmt.Errorf("%s: %s: analyzers disagree", p.Name, ind)
			}
		}
		ratio := float64(a.Total()) / float64(g.Total())
		t.Rows = append(t.Rows, []string{
			p.Name, ms(a.Total()), ms(g.Total()), fmt.Sprintf("%.2f", ratio),
		})
	}
	t.Notes = append(t.Notes,
		"results verified identical between the two analyzers on every predicate")
	return t, nil
}

// Table3 reproduces "Performance of Strictness Analysis".
func Table3() (*Table, error) {
	t := &Table{
		Title: "Table 3: Performance of strictness analysis (tabled engine)",
		Columns: []string{"Program", "Lines", "Preproc(ms)", "Analysis(ms)",
			"Collection(ms)", "Total(ms)", "Lines/sec", "Table space(B)"},
	}
	for _, p := range corpus.FuncPrograms() {
		a, err := strict.Analyze(p.Source, strict.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			p.Name, fmt.Sprint(p.Lines), ms(a.PreprocTime), ms(a.AnalysisTime),
			ms(a.CollectionTime), ms(a.Total()),
			fmt.Sprintf("%.0f", a.LinesPerSecond()), fmt.Sprint(a.TableBytes),
		})
	}
	return t, nil
}

// Table4 reproduces "Performance of groundness analysis with term depth
// abstraction" on the paper's 9-benchmark subset.
func Table4(k int) (*Table, error) {
	if k <= 0 {
		k = 1
	}
	t := &Table{
		Title: fmt.Sprintf("Table 4: Groundness analysis with term-depth abstraction (k=%d)", k),
		Columns: []string{"Program", "Preproc(ms)", "Analysis(ms)",
			"Collection(ms)", "Total(ms)", "Table space(B)"},
	}
	for _, p := range corpus.DepthKPrograms() {
		a, err := depthk.Analyze(p.Source, depthk.Options{K: k})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			p.Name, ms(a.PreprocTime), ms(a.AnalysisTime),
			ms(a.CollectionTime), ms(a.Total()), fmt.Sprint(a.TableBytes),
		})
	}
	return t, nil
}

// Table5 is the §4 preprocessing ablation: dynamic loading (assert +
// interpret) versus closure compilation (clauses specialized to Go
// closures) for the groundness analyzer. Closure-mode preprocessing
// includes clause-compilation time — the paper's tradeoff is exactly
// that compilation is paid once in preprocessing to make the analysis
// (solve) phase cheaper.
func Table5() (*Table, error) {
	t := &Table{
		Title: "Table 5 (§4 claim): dynamic loading vs closure compilation, groundness analysis",
		Columns: []string{"Program", "Dyn preproc(ms)", "Dyn total(ms)",
			"Clo preproc(ms)", "Clo compile(ms)", "Clo total(ms)"},
	}
	for _, p := range corpus.LogicPrograms() {
		d, err := prop.Analyze(p.Source, prop.Options{Mode: engine.LoadDynamic})
		if err != nil {
			return nil, err
		}
		cl, err := prop.Analyze(p.Source, prop.Options{Mode: engine.ModeClosure})
		if err != nil {
			return nil, err
		}
		compileMs := ms(time.Duration(cl.EngineStats.CompileNanos))
		t.Rows = append(t.Rows, []string{
			p.Name, ms(d.PreprocTime), ms(d.Total()),
			ms(cl.PreprocTime), compileMs, ms(cl.Total()),
		})
	}
	return t, nil
}

// Table6 is the §4 representation ablation: the enumerative truth-table
// analyzer against a BDD-based analyzer (Toupie-style bottom-up).
func Table6() (*Table, error) {
	t := &Table{
		Title:   "Table 6 (§4 claim): enumerative (tabled) vs BDD-based groundness analysis",
		Columns: []string{"Program", "Enumerative(ms)", "BDD(ms)", "BDD nodes"},
	}
	for _, p := range corpus.LogicPrograms() {
		a, err := prop.Analyze(p.Source, prop.Options{})
		if err != nil {
			return nil, err
		}
		b, err := bddprop.Analyze(p.Source)
		if err != nil {
			return nil, err
		}
		// Cross-validate success formulas.
		for ind, pr := range a.Results {
			br := b.Results[ind]
			if br == nil {
				continue
			}
			for row := 0; row < 1<<uint(br.Arity); row++ {
				if b.Manager.Eval(br.Success, uint(row)) != pr.Success.Row(uint(row)) {
					return nil, fmt.Errorf("%s %s: representations disagree", p.Name, ind)
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			p.Name, ms(a.Total()), ms(b.Total()), fmt.Sprint(b.Nodes),
		})
	}
	t.Notes = append(t.Notes, "success formulas verified identical between representations")
	return t, nil
}

// Table7 is the §7 comparison: demand dataflow query evaluated tabled
// top-down vs bottom-up (full model) vs bottom-up with Magic sets.
func Table7() (*Table, error) {
	t := &Table{
		Title: "Table 7 (§7 claim): demand interprocedural dataflow — tabled vs bottom-up",
		Columns: []string{"CFG size", "Tabled(ms)", "BottomUp(ms)", "Magic(ms)",
			"Tabled tuples", "BottomUp tuples", "Magic tuples"},
	}
	for _, cfg := range []dataflow.Config{
		{Procs: 4, NodesPerProc: 15, Vars: 4, Seed: 11},
		{Procs: 8, NodesPerProc: 20, Vars: 5, Seed: 12},
		{Procs: 12, NodesPerProc: 30, Vars: 6, Seed: 13},
	} {
		src := dataflow.Generate(cfg)
		query := dataflow.QueryProc(1)
		tab, err := dataflow.RunTabled(src, query)
		if err != nil {
			return nil, err
		}
		full, err := dataflow.RunBottomUpFull(src, query)
		if err != nil {
			return nil, err
		}
		magic, err := dataflow.RunBottomUpMagic(src, query)
		if err != nil {
			return nil, err
		}
		if tab.Answers != full.Answers || tab.Answers != magic.Answers {
			return nil, fmt.Errorf("evaluators disagree: %d/%d/%d",
				tab.Answers, full.Answers, magic.Answers)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%dx%d", cfg.Procs, cfg.NodesPerProc, cfg.Vars),
			ms(tab.Duration), ms(full.Duration), ms(magic.Duration),
			fmt.Sprint(tab.Facts), fmt.Sprint(full.Facts), fmt.Sprint(magic.Facts),
		})
	}
	t.Notes = append(t.Notes, "answer sets verified identical across the three evaluators")
	return t, nil
}

// Table8 establishes the §4.2 hypothesis the paper left open: the effect
// of supplementary tabling on the strictness analysis.
func Table8() (*Table, error) {
	t := &Table{
		Title: "Table 8 (§4.2 hypothesis): supplementary tabling, strictness analysis",
		Columns: []string{"Program", "Plain(ms)", "Supp(ms)",
			"Plain resolutions", "Supp resolutions"},
	}
	for _, p := range corpus.FuncPrograms() {
		plain, err := strict.Analyze(p.Source, strict.Options{NoSupplementary: true})
		if err != nil {
			return nil, err
		}
		supp, err := strict.Analyze(p.Source, strict.Options{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			p.Name, ms(plain.Total()), ms(supp.Total()),
			fmt.Sprint(plain.EngineStats.Resolutions),
			fmt.Sprint(supp.EngineStats.Resolutions),
		})
	}
	return t, nil
}

// Table9 re-measures the table-space column of Tables 1 and 3: the
// term tries the engine keeps (allocated nodes at engine.TrieNodeBytes
// each) against the term.Canonical bytes of the same calls and answers,
// which is what canonical-string tables charge. The canonical column is
// read from the dumped tables of a provenance run, the one kind of run
// that keeps its machine on the report.
func Table9() (*Table, error) {
	t := &Table{
		Title: "Table 9: table space, canonical strings vs term tries",
		Columns: []string{"Program", "Subgoals", "Answers",
			"Canonical(B)", "Trie(B)", "Trie nodes", "Trie/Canonical"},
	}
	row := func(name string, m *engine.Machine, st engine.Stats) {
		canon := 0
		for _, d := range m.DumpTables("") {
			canon += len(term.Canonical(d.Call))
			for _, a := range d.Answers {
				canon += len(term.Canonical(a))
			}
		}
		ratio := "-"
		if canon > 0 {
			ratio = fmt.Sprintf("%.2f", float64(st.TableBytes)/float64(canon))
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(st.Subgoals), fmt.Sprint(st.Answers),
			fmt.Sprint(canon), fmt.Sprint(st.TableBytes),
			fmt.Sprint(st.TableNodes), ratio,
		})
	}
	for _, p := range corpus.LogicPrograms() {
		a, err := prop.Analyze(p.Source, prop.Options{Provenance: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
		row("prop/"+p.Name, a.Machine, a.EngineStats)
	}
	for _, p := range corpus.FuncPrograms() {
		a, err := strict.Analyze(p.Source, strict.Options{Provenance: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
		row("strict/"+p.Name, a.Machine, a.EngineStats)
	}
	t.Notes = append(t.Notes,
		"canonical charges term.Canonical bytes per call and answer; trie charges allocated nodes x "+
			fmt.Sprint(engine.TrieNodeBytes)+"B — shared prefixes make the trie sublinear in answer count")
	return t, nil
}

// All runs every table. Table indices follow DESIGN.md's experiment
// index.
func All() ([]*Table, error) {
	var out []*Table
	for _, f := range []func() (*Table, error){
		Table1, Table2, Table3,
		func() (*Table, error) { return Table4(1) },
		Table5, Table6, Table7, Table8, Table9,
	} {
		t, err := f()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
