package service

import (
	"net/http"
	"time"

	"xlp/internal/obs"
	"xlp/internal/term"
)

// routePatterns lists every HTTP route the handler serves, in the mux's
// pattern syntax. Histograms are keyed by these strings (fixed at
// registration) rather than by the request URL, so label cardinality is
// bounded no matter what clients send.
var routePatterns = []string{
	"POST /v1/analyze/{kind}",
	"POST /v1/lint",
	"POST /v1/query",
	"POST /v1/explain",
	"POST /v1/batch",
	"GET /v1/stats",
	"GET /debug/tables",
	"GET /metrics",
}

// timed wraps an HTTP handler with the per-route latency histogram.
func (s *Service) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.routes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start))
	}
}

// handleMetrics serves Prometheus text exposition format 0.0.4 from the
// service counters, histograms, and engine aggregates.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()
	info := obs.Build(s.cfg.Version)

	pw := obs.NewPromWriter(w)
	pw.Gauge("xlpd_build_info", "Build metadata (value is always 1).", 1,
		"version", info.Version, "goversion", info.GoVersion, "revision", info.Revision)

	pw.Counter("xlpd_requests_total", "Accepted requests (past validation).", float64(st.Requests))
	pw.Counter("xlpd_cache_hits_total", "Requests served from the result cache.", float64(st.Hits))
	pw.Counter("xlpd_cache_misses_total", "Requests that led a fresh computation.", float64(st.Misses))
	pw.Counter("xlpd_deduped_total", "Requests that joined an identical in-flight computation.", float64(st.Deduped))
	pw.Counter("xlpd_executed_total", "Analyses actually run by workers.", float64(st.Executed))
	pw.Counter("xlpd_failures_total", "Executions that returned an error.", float64(st.Failures))
	pw.Counter("xlpd_lint_requests_total", "Executed requests that ran the linter.", float64(st.LintRequests))
	pw.Counter("xlpd_lint_diagnostics_total", "Diagnostics produced by executed lint runs.", float64(st.LintDiagnostics))

	pw.Counter("xlpd_shed_total", "Requests shed with 429 + Retry-After, by reason.",
		float64(st.ShedQueue), "reason", "queue")
	pw.Counter("xlpd_shed_total", "Requests shed with 429 + Retry-After, by reason.",
		float64(st.ShedRate), "reason", "rate")
	pw.Counter("xlpd_streams_total", "Responses delivered incrementally (JSON lines or SSE).", float64(st.Streams))
	pw.Counter("xlpd_batch_requests_total", "Accepted /v1/batch requests.", float64(st.Batches))
	pw.Counter("xlpd_batch_items_total", "Programs submitted through /v1/batch.", float64(st.BatchItems))
	pw.Counter("xlpd_batch_item_errors_total", "Batch items that failed (batches themselves never fail on item errors).", float64(st.BatchItemErrors))
	pw.Counter("xlpd_parallel_runs_total", "Executed analyses eligible for intra-query parallel evaluation (effective parallelism > 1).", float64(st.ParallelRuns))
	pw.Gauge("xlpd_parallel_default", "Server-wide default intra-query parallelism (xlpd -parallel).", float64(s.cfg.DefaultParallel))
	if st.Store != nil {
		pw.Counter("xlpd_store_hits_total", "Requests served from the disk-backed result store.", float64(st.Store.Hits))
		pw.Counter("xlpd_store_misses_total", "Disk store lookups that found no usable entry.", float64(st.Store.Misses))
		pw.Counter("xlpd_store_writes_total", "Results persisted to the disk store.", float64(st.Store.Writes))
		pw.Counter("xlpd_store_corrupt_total", "Disk store entries dropped as unreadable.", float64(st.Store.Corrupt))
		pw.Counter("xlpd_store_evicted_total", "Disk store entries removed by the size cap.", float64(st.Store.Evicted))
		pw.Gauge("xlpd_store_entries", "Entries currently in the disk store.", float64(st.Store.Entries))
	}

	pw.Gauge("xlpd_queue_depth", "Requests queued but not yet picked up.", float64(st.QueueDepth))
	pw.Gauge("xlpd_in_flight", "Requests currently executing.", float64(st.InFlight))
	pw.Gauge("xlpd_workers", "Worker-pool size.", float64(st.Workers))
	pw.Gauge("xlpd_cache_entries", "Result-cache entries.", float64(st.CacheLen))
	pw.Gauge("xlpd_cache_capacity", "Result-cache capacity.", float64(st.CacheCap))
	pw.Gauge("xlpd_uptime_seconds", "Seconds since the service started.", st.UptimeSeconds)
	pw.Gauge("xlpd_in_flight_peak", "High-water mark of concurrently executing requests.", float64(st.PeakInFlight))
	pw.Gauge("xlpd_queue_depth_peak", "High-water mark of the request queue depth.", float64(st.PeakQueueDepth))

	phase := func(name string, us int64) {
		pw.Counter("xlpd_phase_seconds_total",
			"Cumulative analysis phase time over executed runs.",
			float64(us)/1e6, "phase", name)
	}
	phase("preproc", st.PreprocUs)
	phase("analysis", st.AnalysisUs)
	phase("collection", st.CollectionUs)

	eng := func(name, help string, v int64) {
		pw.Counter("xlpd_engine_"+name, help, float64(v))
	}
	eng("resolutions_total", "Clause head unification attempts across executed runs.", st.Engine.Resolutions)
	eng("builtin_calls_total", "Builtin calls across executed runs.", st.Engine.BuiltinCalls)
	eng("subgoals_total", "Distinct tabled subgoals across executed runs.", st.Engine.Subgoals)
	eng("answers_total", "Distinct tabled answers across executed runs.", st.Engine.Answers)
	eng("producer_runs_total", "Producer activations (one per subgoal) across executed runs.", st.Engine.ProducerRuns)
	eng("producer_passes_total", "Producer clause passes (one per subgoal) across executed runs.", st.Engine.ProducerPasses)
	eng("suspensions_total", "Consumer records saved at incomplete tables across executed runs.", st.Engine.Suspensions)
	eng("resumptions_total", "Answers delivered to saved consumer records across executed runs.", st.Engine.Resumptions)
	eng("table_bytes_total", "Table space bytes across executed runs.", st.Engine.TableBytes)
	eng("call_bytes_total", "Table space charged to call-table keys across executed runs.", st.Engine.CallBytes)
	eng("answer_bytes_total", "Table space charged to answer-table keys across executed runs.", st.Engine.AnswerBytes)
	eng("table_nodes_total", "Table-trie nodes allocated across executed runs.", st.Engine.TableNodes)
	eng("provenance_bytes_total", "Space charged to justification records across executed runs.", st.Engine.ProvenanceBytes)
	pw.Counter("xlpd_preds_compiled_total",
		"Predicates translated to closure code across executed runs (ModeClosure).",
		float64(st.Engine.PredsCompiled))
	pw.Counter("xlpd_compile_seconds_total",
		"Time spent translating predicates to closure code across executed runs.",
		float64(st.Engine.CompileNanos)/1e9)
	pw.Gauge("xlpd_interned_symbols", "Interned atom/functor symbols in the process-wide table.", float64(term.InternedSyms()))

	for _, k := range Kinds() {
		pw.Histogram("xlpd_request_duration_seconds",
			"Request latency through cache, dedup, and execution.",
			s.latency[k], "kind", string(k))
	}
	for _, route := range routePatterns {
		pw.Histogram("xlpd_http_request_duration_seconds",
			"HTTP handler latency by route pattern.",
			s.routes[route], "route", route)
	}
}
