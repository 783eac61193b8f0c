package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// task is one (program, analysis, clause backend) of a batch workload.
type task struct {
	metric   string // per-program metric: program.<name>.<analysis>[.closure]_ms
	golden   string // golden key: <analysis>/<name>
	analysis string // prop, strict or depthk
	src      string
	mode     engine.LoadMode
}

// run analyzes the task's program and renders the result in wire form.
// tl, when non-nil, records the analyzer's phases.
func (t task) run(tl *obs.Timeline) (*service.Response, error) {
	switch t.analysis {
	case "prop":
		a, err := prop.Analyze(t.src, prop.Options{Mode: t.mode, Timeline: tl})
		if err != nil {
			return nil, err
		}
		return service.FromGroundness(a), nil
	case "strict":
		a, err := strict.Analyze(t.src, strict.Options{Mode: t.mode, Timeline: tl})
		if err != nil {
			return nil, err
		}
		return service.FromStrictness(a), nil
	default:
		opts := depthkOptions(t.mode)
		opts.Timeline = tl
		a, err := depthk.Analyze(t.src, opts)
		if err != nil {
			return nil, err
		}
		return service.FromDepthK(a), nil
	}
}

func newTask(analysis string, p corpus.Program, mode engine.LoadMode) task {
	metric := "program." + p.Name + "." + analysis
	if mode == engine.ModeClosure {
		metric += ".closure"
	}
	return task{
		metric:   metric + "_ms",
		golden:   analysis + "/" + p.Name,
		analysis: analysis,
		src:      p.Source,
		mode:     mode,
	}
}

// toyPrograms keeps one small program per analysis for the test-sized
// runs.
var toyPrograms = map[string]bool{"qsort": true, "mergesort": true}

// corpusTasks are Tables 1 and 3: groundness over the logic programs and
// strictness over the functional ones, under the interpreter and the
// closure compiler.
func corpusTasks(toy bool) []task {
	var out []task
	for _, mode := range []engine.LoadMode{engine.LoadDynamic, engine.ModeClosure} {
		for _, p := range corpus.LogicPrograms() {
			if !toy || toyPrograms[p.Name] {
				out = append(out, newTask("prop", p, mode))
			}
		}
		for _, p := range corpus.FuncPrograms() {
			if !toy || toyPrograms[p.Name] {
				out = append(out, newTask("strict", p, mode))
			}
		}
	}
	return out
}

// depthkPrograms are Table 4's programs without read, whose 79 s
// analysis does not fit a run.
func depthkPrograms() []corpus.Program {
	var out []corpus.Program
	for _, p := range corpus.DepthKPrograms() {
		if p.Name != "read" {
			out = append(out, p)
		}
	}
	return out
}

func depthkTasks(toy bool) []task {
	var out []task
	for _, p := range depthkPrograms() {
		if !toy || toyPrograms[p.Name] {
			out = append(out, newTask("depthk", p, engine.LoadDynamic))
		}
	}
	return out
}

// phaseLayer names the layer behind each analyzer timeline row.
var phaseLayer = map[string]map[string]string{
	"prop":   {"parse": "prolog.parse", "transform": "prop.transform", "load": "engine.load", "solve": "engine.solve", "collect": "prop.collect"},
	"strict": {"parse": "fl.parse", "transform": "strict.transform", "load": "engine.load", "solve": "engine.solve", "collect": "strict.collect"},
	"depthk": {"parse": "prolog.parse", "transform": "depthk.transform", "load": "engine.load", "solve": "engine.solve", "collect": "depthk.collect"},
}

// callRecord is one timed analysis call.
type callRecord struct {
	task       *task
	start, end time.Time
	phases     []obs.Phase // traced calls only
	checkEnd   time.Time
	engine     service.EngineReport
}

// sweepRecord is one pass over every task.
type sweepRecord struct {
	start, end time.Time
	calls      []callRecord
	traced     bool
	mem        memDelta
	peakMB     float64 // peak resident set during the sweep
}

func (s sweepRecord) dur() time.Duration { return s.end.Sub(s.start) }

// sweep runs every task once in the given order, checking each result
// against the golden hash after its latency sample is taken.
func sweep(tasks []task, order []int, golden map[string]string, traced bool, rep *report) sweepRecord {
	rec := sweepRecord{traced: traced, calls: make([]callRecord, 0, len(order))}
	resetPeakRSS()
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	rec.start = time.Now()
	for _, i := range order {
		t := &tasks[i]
		c := callRecord{task: t}
		var tl *obs.Timeline
		c.start = time.Now()
		if traced {
			tl = obs.NewTimeline()
		}
		resp, err := t.run(tl)
		c.end = time.Now()
		switch {
		case err != nil:
			rep.fail("%s: %v", t.golden, err)
		case canonicalHash(resp) != golden[t.golden]:
			rep.fail("%s (%s): result differs from the golden hash", t.golden, t.metric)
		default:
			if resp.Engine != nil {
				c.engine = *resp.Engine
			}
		}
		c.phases = tl.Phases()
		c.checkEnd = time.Now()
		rec.calls = append(rec.calls, c)
	}
	rec.end = time.Now()
	rec.peakMB = peakRSSMB()
	if traced {
		rec.mem = readMemDelta(&before)
	}
	return rec
}

// runBatch runs a closed-loop batch workload: one untimed warm-up sweep
// (the set-up), then timed sweeps until the run's time is used. A traced
// run alternates untraced and traced sweeps so that the difference
// between them gives the tracing overhead.
func runBatch(cfg config, tasks []task, rep *report) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	for _, t := range tasks {
		if golden[t.golden] == "" {
			return fmt.Errorf("no golden hash for %s", t.golden)
		}
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(tasks))

	// Warm-up failures recur in the timed sweeps, which count them.
	warm := sweep(tasks, order, golden, false, newReport("warm-up", false))
	rep.set("setup_s", "s", warm.dur().Seconds(), 1)

	var sweeps []sweepRecord
	budget := cfg.duration()
	begin := time.Now()
	for {
		traced := cfg.trace && len(sweeps)%2 == 1
		s := sweep(tasks, order, golden, traced, rep)
		sweeps = append(sweeps, s)
		rep.attempted += len(s.calls)
		elapsed := time.Since(begin)
		enough := !cfg.trace || len(sweeps) >= 2
		if enough && elapsed+s.dur() > budget {
			break
		}
	}
	if cfg.trace {
		batchLayers(cfg, sweeps, rep)
	} else {
		batchEndToEnd(sweeps, rep)
	}
	return nil
}

// batchEndToEnd reports the untraced run's metrics.
func batchEndToEnd(sweeps []sweepRecord, rep *report) {
	latencies(sweeps, rep)
	var sweepS, peaks []float64
	byTask := map[string][]float64{}
	for _, s := range sweeps {
		sweepS = append(sweepS, s.dur().Seconds())
		peaks = append(peaks, s.peakMB)
		for _, c := range s.calls {
			byTask[c.task.metric] = append(byTask[c.task.metric], ms(c.end.Sub(c.start)))
		}
	}
	rep.set("sweep_s", "s", median(sweepS), len(sweepS))
	// The median of per-sweep peaks, not the process's peak: the highest
	// of several peaks grows with the number of sweeps, so with speed.
	rep.set("peak_rss_mb", "MB", median(peaks), len(peaks))
	q1, q2, q3 := quartiles(sweepS)
	rep.note("%d sweeps: median %.3f s, quartiles %.3f and %.3f s", len(sweepS), q2, q1, q3)
	var medians []float64
	for name, xs := range byTask {
		m := median(xs)
		medians = append(medians, m)
		rep.set(name, "ms", m, len(xs))
	}
	rep.set("analysis_ms_geomean", "ms", geomean(medians), len(medians))
	rep.set("failed_share", "ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
}

// latencies reports the per-call latency median and p99, and the calls
// completed per second of sweep time, over the given sweeps.
func latencies(sweeps []sweepRecord, rep *report) {
	var lat []float64
	var wall time.Duration
	for _, s := range sweeps {
		wall += s.dur()
		for _, c := range s.calls {
			lat = append(lat, ms(c.end.Sub(c.start)))
		}
	}
	rep.set("latency_p50_ms", "ms", median(lat), len(lat))
	rep.set("latency_p99_ms", "ms", percentile(lat, 99), len(lat))
	rep.set("throughput_per_s", "1/s", float64(len(lat))/wall.Seconds(), len(lat))
	tail := supportedTail(len(lat))
	rep.note("latency over %d calls: p50 %.3f ms, p%g %.3f ms (the highest percentile with ten calls beyond it)",
		len(lat), median(lat), tail, percentile(lat, tail))
}

// batchLayers reports the traced run's per-layer metrics from the spans
// of its traced sweeps and the counters of their calls.
func batchLayers(cfg config, sweeps []sweepRecord, rep *report) {
	tr := newTracer()
	var untraced []sweepRecord
	var plain, traced []float64
	byTask := map[string][]float64{}
	var sums engineSums
	var mem memDelta
	var calls, closureCalls int
	var compileMs, compiled float64
	for _, s := range sweeps {
		if !s.traced {
			untraced = append(untraced, s)
			plain = append(plain, s.dur().Seconds())
			continue
		}
		traced = append(traced, s.dur().Seconds())
		mem.add(s.mem)
		sid := tr.add("sweep", 0, "", s.start, s.end)
		for _, c := range s.calls {
			calls++
			byTask[c.task.metric] = append(byTask[c.task.metric], ms(c.end.Sub(c.start)))
			aid := tr.add("analyze", sid, c.task.metric, c.start, c.end)
			for _, p := range c.phases {
				name := phaseLayer[c.task.analysis][p.Name]
				if name == "" {
					name = c.task.analysis + "." + p.Name
				}
				tr.add(name, aid, c.task.metric, c.start.Add(p.Start), c.start.Add(p.Start+p.Dur))
			}
			tr.add("bench.check", sid, c.task.metric, c.end, c.checkEnd)
			sums.add(c.engine)
			if c.task.mode == engine.ModeClosure {
				closureCalls++
				compileMs += float64(c.engine.CompileNanos) / 1e6
				compiled += float64(c.engine.PredsCompiled)
			}
		}
	}
	latencies(untraced, rep)
	spans := tr.all()
	layers := selfTimes(spans)
	var preproc, collect time.Duration
	for _, name := range []string{"prolog.parse", "fl.parse", "prop.transform", "strict.transform",
		"depthk.transform", "engine.load", "engine.solve", "prop.collect", "strict.collect", "depthk.collect"} {
		lt := layers[name]
		if lt == nil {
			lt = &layerTime{}
		}
		rep.set(name+"_ms", "ms", ms(lt.Total)/float64(max(lt.Count, 1)), lt.Count)
		switch {
		case strings.HasSuffix(name, ".collect"):
			collect += lt.Total
		case name != "engine.solve":
			preproc += lt.Total
		}
	}
	rep.set("analysis.preproc_ms", "ms", ms(preproc)/float64(max(calls, 1)), calls)
	rep.set("analysis.collect_ms", "ms", ms(collect)/float64(max(calls, 1)), calls)
	rep.set("compile.compile_ms", "ms", compileMs/float64(max(closureCalls, 1)), closureCalls)
	rep.set("compile.preds_compiled", "count/op", compiled/float64(max(closureCalls, 1)), closureCalls)
	sums.report(rep, calls)
	mem.report(rep, calls)
	for name, xs := range byTask {
		rep.set(name, "ms", median(xs), len(xs))
	}
	rep.set("trace.overhead_pct", "%", 100*(median(traced)/median(plain)-1), len(traced))
	printSelfTimes(cfg.log, spans)
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			fmt.Fprintf(cfg.log, "# writing %s: %v\n", cfg.traceOut, err)
		}
	}
}

// engineSums adds up the engine counters of analysis runs.
type engineSums struct {
	resolutions, builtins, subgoals, answers, passes, tableBytes, nodes int64
}

func (s *engineSums) add(e service.EngineReport) {
	s.resolutions += e.Resolutions
	s.builtins += e.BuiltinCalls
	s.subgoals += e.Subgoals
	s.answers += e.Answers
	s.passes += e.ProducerPasses
	s.tableBytes += e.TableBytes
	s.nodes += e.TableNodes
}

// report sets the engine metrics as means over n analysis runs, and the
// waste ratio of producer passes over subgoals.
func (s *engineSums) report(rep *report, n int) {
	per := func(v int64) float64 { return float64(v) / float64(max(n, 1)) }
	rep.set("engine.resolutions", "count/op", per(s.resolutions), n)
	rep.set("engine.builtin_calls", "count/op", per(s.builtins), n)
	rep.set("engine.subgoals", "count/op", per(s.subgoals), n)
	rep.set("engine.answers", "count/op", per(s.answers), n)
	rep.set("engine.producer_passes", "count/op", per(s.passes), n)
	rep.set("engine.table_bytes", "B/op", per(s.tableBytes), n)
	rep.set("term.table_nodes", "count/op", per(s.nodes), n)
	ratio := 0.0
	if s.subgoals > 0 {
		ratio = float64(s.passes) / float64(s.subgoals)
	}
	rep.set("engine.passes_per_subgoal", "ratio", ratio, n)
}
