package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"xlp/internal/service"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1}, 0, 3, 6}, // Python extrapolates at n=2
		{[]float64{2, 9, 4, 4, 7}, 3, 4, 8},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestGeomeanPercentile(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{0, 4, 0, 9}); !near(got, 6) {
		t.Errorf("geomean skipping zeros = %v", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	for _, tc := range []struct{ p, want float64 }{{0, 0}, {50, 50}, {99, 99}, {100, 100}, {99.5, 99.5}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {5, 50}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two children overlapping each other on [20, 30], and a third
		// sticking out of the parent: covered = [10, 40] ∪ [90, 100] = 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
	}
	lt := selfTimes(spans)
	for name, want := range map[string]time.Duration{"request": 60, "a": 14, "b": 20, "c": 30, "d": 6} {
		if got := lt[name].Self; got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	if got := lt["request"].Total; got != 100 {
		t.Errorf("total(request) = %d", got)
	}
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := declaredMetrics(t)
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(e2e), len(layer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, group := range []struct {
		json  map[string]string
		specs []metricSpec
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(group.json) != len(group.specs) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark %d", len(group.json), len(group.specs))
		}
		for _, s := range group.specs {
			if !name.MatchString(s.name) {
				t.Errorf("bad metric name %q", s.name)
			}
			if unit, ok := group.json[s.name]; !ok || unit != s.unit {
				t.Errorf("metric %s: benchmark unit %q, BENCHMARK.json %q (declared: %v)", s.name, s.unit, unit, ok)
			}
		}
	}
}

// TestWorkloadsToy runs every workload, untraced and traced, at toy size
// and checks that each run prints every declared metric with its unit
// and that nothing failed.
func TestWorkloadsToy(t *testing.T) {
	e2e, layer := declaredMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{
					workload: w,
					seed:     3,
					seconds:  0.4,
					trace:    traced,
					toy:      true,
					workDir:  t.TempDir(),
				}
				if strings.HasPrefix(w, "serve") {
					cfg.seconds = 1.2
				}
				if traced {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				var out, errs bytes.Buffer
				cfg.log = &out
				if code := runWorkload(cfg, &out, &errs); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errs.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := e2e
				if traced {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s missing or in %q, want %q", name, m.Unit, unit)
					}
					if !strings.Contains(out.String(), w+" "+name+" ") {
						t.Errorf("metric %s not printed", name)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if traced {
					b, err := os.ReadFile(cfg.traceOut)
					if err != nil {
						t.Fatal(err)
					}
					var doc struct{ Spans []span }
					if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
						t.Errorf("trace file: %d spans, %v", len(doc.Spans), err)
					}
				}
			})
		}
	}
}

func TestCanonicalHashSurvivesHTTPRoundTrip(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range append(corpusTasks(true), depthkTasks(true)...) {
		resp, err := tk.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var back service.Response
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if h := canonicalHash(&back); h != golden[tk.golden] || canonicalHash(resp) != h {
			t.Errorf("%s: hash changes across a JSON round trip or differs from the golden file", tk.golden)
		}
	}
}
