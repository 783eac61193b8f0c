// Command xlpd serves the program analyzers over HTTP/JSON.
//
// Usage:
//
//	xlpd -addr :7455 -workers 8 -queue 128 -cache 256 -timeout 30s \
//	     -store /var/lib/xlpd/store -rate 50 -burst 100
//
// With -store, results are persisted to a content-addressed disk store
// under the in-memory LRU, so a restarted daemon serves repeated
// requests warm. With -rate, each client (X-Client-ID header, else
// remote host) is admission-controlled by a token bucket; shed requests
// get 429 with a Retry-After header. Responses stream incrementally
// when the client asks (options.stream, Accept: application/x-ndjson,
// or Accept: text/event-stream).
//
// Endpoints:
//
//	POST /v1/analyze/{groundness,gaia,bdd,strictness,depthk}
//	POST /v1/lint             object-program linter (options.lang: prolog|fl)
//	POST /v1/query
//	POST /v1/explain          answer provenance (justification DAG)
//	GET  /v1/stats            (?format=text for a rendered table)
//	GET  /debug/tables        live per-predicate table state of executing runs
//	GET  /metrics             Prometheus text exposition
//
// Every request is correlated: an incoming X-Request-ID header is
// propagated (or one is generated), echoed on the response, and stamped
// as "req" on each structured log line the request produces. Logs are
// JSON on stderr (-log-level debug|info|warn|error).
//
// With -pprof, the net/http/pprof profiling handlers are mounted under
// /debug/pprof/ on the same listener.
//
// Request body: {"source": "...", "options": {...}, "timeout_ms": 500}.
// See README.md "Running the analysis server" for curl examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xlp/internal/obs"
	"xlp/internal/service"
)

// version is stamped via go build -ldflags "-X main.version=v1.2.3";
// empty falls back to the toolchain-embedded module version.
var version string

func main() {
	addr := flag.String("addr", ":7455", "listen address")
	workers := flag.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 128, "request queue capacity")
	cache := flag.Int("cache", 256, "result cache capacity (entries)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request timeout")
	grace := flag.Duration("grace", 15*time.Second, "shutdown drain grace period")
	storeDir := flag.String("store", "", "disk result store directory (empty = disabled)")
	storeMax := flag.Int("store-max", 0, "disk store entry cap (0 = unlimited)")
	rate := flag.Float64("rate", 0, "per-client admission rate, requests/s (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-client admission burst (0 = 2x rate, min 8)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	showVersion := flag.Bool("version", false, "print build info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("xlpd", obs.Build(version))
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "xlpd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	svc := service.New(service.Config{
		Workers:         *workers,
		QueueSize:       *queue,
		CacheSize:       *cache,
		DefaultTimeout:  *timeout,
		Version:         version,
		Logger:          logger,
		StoreDir:        *storeDir,
		StoreMaxEntries: *storeMax,
		RateLimit:       *rate,
		RateBurst:       *burst,
	})
	handler := service.RequestIDMiddleware(svc.Handler())
	if *withPprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	logger.Info("listening",
		"build", fmt.Sprint(obs.Build(version)), "addr", *addr, "pprof", *withPprof)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// running analyses finish within the grace period.
	logger.Info("shutting down", "grace", grace.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := server.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		logger.Warn("service shutdown", "err", err)
	}
	st := svc.Stats()
	logger.Info("served",
		"uptime_s", fmt.Sprintf("%.1f", st.UptimeSeconds),
		"requests", st.Requests, "hits", st.Hits, "misses", st.Misses,
		"deduped", st.Deduped, "executed", st.Executed, "failures", st.Failures,
		"shed_queue", st.ShedQueue, "shed_rate", st.ShedRate, "streams", st.Streams,
		"peak_in_flight", st.PeakInFlight, "peak_queue_depth", st.PeakQueueDepth)
	if st.Store != nil {
		logger.Info("disk store totals",
			"entries", st.Store.Entries, "hits", st.Store.Hits,
			"writes", st.Store.Writes, "corrupt", st.Store.Corrupt)
	}
	logger.Info("engine totals",
		"resolutions", st.Engine.Resolutions, "subgoals", st.Engine.Subgoals,
		"answers", st.Engine.Answers, "producer_runs", st.Engine.ProducerRuns,
		"table_bytes", st.Engine.TableBytes, "preds_compiled", st.Engine.PredsCompiled,
		"provenance_bytes", st.Engine.ProvenanceBytes)
}
