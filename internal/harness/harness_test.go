package harness

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Columns: []string{"A", "Blong"},
		Rows:    [][]string{{"x", "1"}, {"yy", "22"}},
		Notes:   []string{"n"},
	}
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Blong") || !strings.Contains(out, "note: n") {
		t.Fatalf("render:\n%s", out)
	}
	var md strings.Builder
	tbl.Markdown(&md)
	if !strings.Contains(md.String(), "| A | Blong |") {
		t.Fatalf("markdown:\n%s", md.String())
	}
}

// Shape checks on the fast tables. The heavyweight full-table runs are
// exercised by cmd/experiments and the benchmarks.
func TestTable1Shape(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 {
		t.Fatalf("Table 1 must have 12 benchmark rows, got %d", len(tbl.Rows))
	}
	names := map[string]bool{}
	for _, r := range tbl.Rows {
		names[r[0]] = true
	}
	for _, want := range []string{"cs", "qsort", "read", "press1", "press2"} {
		if !names[want] {
			t.Fatalf("Table 1 missing %s", want)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tbl, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("Table 3 must have 10 rows, got %d", len(tbl.Rows))
	}
}

func TestTable9Shape(t *testing.T) {
	tbl, err := Table9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12+10 {
		t.Fatalf("Table 9 must cover the Table 1 and Table 3 corpora (22 rows), got %d", len(tbl.Rows))
	}
}

func TestTable2CrossValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus comparison in -short mode")
	}
	// Table2 returns an error if the two analyzers ever disagree; its
	// success is itself the assertion.
	if _, err := Table2(); err != nil {
		t.Fatal(err)
	}
}
