package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricSpec declares one metric the benchmark reports. The same names
// and units are declared in BENCHMARK.json; bench_test.go keeps the two
// lists equal.
type metricSpec struct {
	name  string
	unit  string
	layer bool // per-layer (traced runs) rather than end-to-end
}

// endToEnd are the metrics every untraced run reports, on every
// workload, with a regression bound each.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the metrics every traced run reports, on every workload;
// a layer a workload does not exercise reads 0. The first three are the
// user-facing timings. Their run-to-run spread on the reference host was
// wider than any allowed bound, so they are reported without one. An
// operation is one analysis call in corpus and depthk and one HTTP
// request in serve-hot and serve-cold.
var perLayer = append([]metricSpec{
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p99_ms", unit: "ms"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "analysis.preproc_ms", unit: "ms"},
	{name: "analysis.collect_ms", unit: "ms"},
	{name: "prolog.parse_ms", unit: "ms"},
	{name: "fl.parse_ms", unit: "ms"},
	{name: "prop.transform_ms", unit: "ms"},
	{name: "strict.transform_ms", unit: "ms"},
	{name: "depthk.transform_ms", unit: "ms"},
	{name: "engine.load_ms", unit: "ms"},
	{name: "engine.solve_ms", unit: "ms"},
	{name: "prop.collect_ms", unit: "ms"},
	{name: "strict.collect_ms", unit: "ms"},
	{name: "depthk.collect_ms", unit: "ms"},
	{name: "compile.compile_ms", unit: "ms"},
	{name: "compile.preds_compiled", unit: "count/op"},
	{name: "engine.resolutions", unit: "count/op"},
	{name: "engine.builtin_calls", unit: "count/op"},
	{name: "engine.subgoals", unit: "count/op"},
	{name: "engine.answers", unit: "count/op"},
	{name: "engine.producer_passes", unit: "count/op"},
	{name: "engine.passes_per_subgoal", unit: "ratio"},
	{name: "engine.table_bytes", unit: "B/op"},
	{name: "term.table_nodes", unit: "count/op"},
	{name: "go.alloc_kb", unit: "KiB/op"},
	{name: "go.gc_cycles", unit: "count/op"},
	{name: "go.gc_pause_ms", unit: "ms/op"},
	{name: "service.handler_us_p50", unit: "us"},
	{name: "service.handler_us_p99", unit: "us"},
	{name: "service.overhead_us_p50", unit: "us"},
	{name: "service.http_us_p50", unit: "us"},
	{name: "service.response_kb_mean", unit: "KiB"},
	{name: "service.conn_wait_ms_p99", unit: "ms"},
	{name: "service.peak_queue_depth", unit: "count"},
	{name: "service.cache_hit_ratio", unit: "ratio"},
	{name: "store.puts", unit: "count"},
	{name: "store.hits", unit: "count"},
	{name: "store.misses", unit: "count"},
	{name: "client.late_ms_p99", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}, programMetrics()...)

func init() {
	for i := range perLayer {
		perLayer[i].layer = true
	}
}

// programMetrics are the per-program analysis times: one row per
// (program, analysis, backend) that corpus and depthk run.
func programMetrics() []metricSpec {
	var out []metricSpec
	for _, t := range corpusTasks(false) {
		out = append(out, metricSpec{name: t.metric, unit: "ms"})
	}
	for _, t := range depthkTasks(false) {
		out = append(out, metricSpec{name: t.metric, unit: "ms"})
	}
	return out
}

// report collects one run's measurements.
type report struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	problems  []string           // correctness failures, for the log
	notes     []string           // further lines for the log
	values    map[string]float64 // every measured metric, declared or not
	units     map[string]string
	samples   map[string]int // sample count behind a value, when known
}

func newReport(workload string, traced bool) *report {
	return &report{
		workload: workload,
		traced:   traced,
		values:   map[string]float64{},
		units:    map[string]string{},
		samples:  map[string]int{},
	}
}

// set records a metric value with its unit and sample count (0 = n/a).
func (r *report) set(name, unit string, v float64, n int) {
	r.values[name] = v
	r.units[name] = unit
	if n > 0 {
		r.samples[name] = n
	}
}

// fail records a correctness failure of one operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a line to the log.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// declared returns the metrics this run must report.
func (r *report) declared() []metricSpec {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// output is the JSON object printed as the last line of a run.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every measured metric as a "name value unit n=count" line,
// then the JSON result line holding exactly the declared metrics. Layers
// a traced run did not exercise are reported as 0. A declared
// end-to-end metric that was not measured is an error.
func (r *report) write(w io.Writer) error {
	for _, spec := range r.declared() {
		if _, ok := r.values[spec.name]; !ok {
			if !spec.layer {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, spec.name)
			}
			r.set(spec.name, spec.unit, 0, 0)
		}
		if r.units[spec.name] != spec.unit {
			return fmt.Errorf("%s: metric %s measured in %q, declared in %q",
				r.workload, spec.name, r.units[spec.name], spec.unit)
		}
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%s %s %.6g %s", r.workload, name, r.values[name], r.units[name])
		if n := r.samples[name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s FAILED %s\n", r.workload, p)
	}
	out := output{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, spec := range r.declared() {
		out.Metrics[spec.name] = metricValue{Value: r.values[spec.name], Unit: spec.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
