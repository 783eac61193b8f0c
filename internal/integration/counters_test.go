package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

var update = flag.Bool("update", false, "rewrite the engine-counter golden file")

// resultHash is the SHA-256 of a response's result fields (kind, depth
// bound, per-predicate and per-function results), the same canonical
// hash the repository benchmark's golden file uses.
func resultHash(r *service.Response) string {
	b, err := json.Marshal(struct {
		Kind       service.Kind
		K          int
		Predicates []service.PredReport
		Functions  []service.FuncReport
	}{r.Kind, r.K, r.Predicates, r.Functions})
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// counterRow renders one golden row: the run's name, its result hash
// and the engine counters that depend on the evaluation trajectory.
func counterRow(name string, r *service.Response) string {
	e := r.Engine
	return fmt.Sprintf("%s hash=%s resolutions=%d builtin_calls=%d subgoals=%d answers=%d producer_passes=%d suspensions=%d resumptions=%d table_nodes=%d\n",
		name, resultHash(r)[:16], e.Resolutions, e.BuiltinCalls, e.Subgoals, e.Answers,
		e.ProducerPasses, e.Suspensions, e.Resumptions, e.TableNodes)
}

// TestEngineCountersGolden pins the engine counters and result hash of
// every paper workload — Prop groundness and strictness of each corpus
// program, depth-k (k=1) of Table 4's programs except read — under
// both clause backends. Results are fixpoints, but the counters follow
// the evaluation order, so a change to how an analyzer builds, orders
// or solves its goals shows up here.
// Run with -update to rewrite testdata/counters.golden.
func TestEngineCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	modes := []struct {
		name string
		mode engine.LoadMode
	}{{"interp", engine.LoadDynamic}, {"closure", engine.ModeClosure}}
	var sb strings.Builder
	for _, p := range corpus.LogicPrograms() {
		for _, m := range modes {
			a, err := prop.Analyze(p.Source, prop.Options{Mode: m.mode})
			if err != nil {
				t.Fatalf("prop/%s/%s: %v", p.Name, m.name, err)
			}
			sb.WriteString(counterRow("prop/"+p.Name+"/"+m.name, service.FromGroundness(a)))
		}
	}
	for _, p := range corpus.FuncPrograms() {
		for _, m := range modes {
			a, err := strict.Analyze(p.Source, strict.Options{Mode: m.mode})
			if err != nil {
				t.Fatalf("strict/%s/%s: %v", p.Name, m.name, err)
			}
			sb.WriteString(counterRow("strict/"+p.Name+"/"+m.name, service.FromStrictness(a)))
		}
	}
	for _, p := range corpus.DepthKPrograms() {
		if p.Name == "read" {
			continue // about 8 s
		}
		for _, m := range modes {
			a, err := depthk.Analyze(p.Source, depthk.Options{K: 1, Mode: m.mode})
			if err != nil {
				t.Fatalf("depthk/%s/%s: %v", p.Name, m.name, err)
			}
			sb.WriteString(counterRow("depthk/"+p.Name+"/"+m.name, service.FromDepthK(a)))
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "counters.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", golden, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gotRows, wantRows := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d rows, golden has %d (run with -update if intended)", len(gotRows)-1, len(wantRows)-1)
	}
	for i := range gotRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("counters changed (run with -update if intended)\n got: %s\nwant: %s", gotRows[i], wantRows[i])
		}
	}
}
