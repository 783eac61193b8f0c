package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xlp/internal/analysis"
	"xlp/internal/bddprop"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/service/store"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// Service front-door errors (the engine's sentinel errors — ErrDeadline,
// ErrCanceled, the limit errors — pass through from evaluation).
var (
	// ErrBadRequest: the request failed validation; wraps detail.
	ErrBadRequest = errors.New("service: bad request")
	// ErrQueueFull: the bounded request queue is at capacity.
	ErrQueueFull = errors.New("service: queue full")
	// ErrRateLimited: the client exceeded its admission rate.
	ErrRateLimited = errors.New("service: rate limited")
	// ErrClosed: the service is shut down or shutting down.
	ErrClosed = errors.New("service: closed")
)

// Config sizes a Service.
type Config struct {
	// Workers is the number of pool workers; each worker confines one
	// engine.Machine at a time (machines are not goroutine-safe).
	// Default: GOMAXPROCS.
	Workers int
	// QueueSize bounds the number of queued-but-not-running requests;
	// submissions beyond it fail fast with ErrQueueFull. Default 64.
	QueueSize int
	// CacheSize is the LRU result-cache capacity in entries. Default
	// 128; 0 uses the default, negative disables caching.
	CacheSize int
	// DefaultTimeout bounds requests that do not set TimeoutMs.
	// Default 30s; negative means no default timeout.
	DefaultTimeout time.Duration
	// Version overrides the build-info version reported by /v1/stats and
	// /metrics (set from -ldflags "-X main.version=..."). Empty uses the
	// module version embedded by the Go toolchain.
	Version string
	// Logger receives the service's structured request logs (accepted,
	// cache hit, dedup join, execution start/finish with engine
	// counters), each line carrying the request correlation ID as "req".
	// Nil discards them.
	Logger *slog.Logger
	// StoreDir roots the disk-backed result store under the LRU: results
	// written there survive restarts and are served as hits by any later
	// process pointed at the same directory. Empty disables the store.
	// If the directory cannot be opened the service logs the error and
	// runs storeless rather than failing to start.
	StoreDir string
	// StoreMaxEntries caps the disk store's entry count (oldest entries
	// are swept past the cap). 0 means unlimited.
	StoreMaxEntries int
	// RateLimit enables per-client admission control: each client (the
	// X-Client-ID header, else the remote host) gets a token bucket
	// refilled at RateLimit requests/second. Shed requests get 429 +
	// Retry-After. 0 disables admission control.
	RateLimit float64
	// RateBurst is the token-bucket capacity (max burst per client).
	// Default: 2*RateLimit, at least 8.
	RateBurst int
	// MaxClients bounds the admission controller's per-client state
	// (least-recently-seen clients are evicted). Default 1024.
	MaxClients int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RateLimit)
		if c.RateBurst < 8 {
			c.RateBurst = 8
		}
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 1024
	}
	return c
}

// flight is one in-progress computation that concurrent identical
// requests share (single-flight deduplication).
type flight struct {
	done chan struct{} // closed when resp/err are set
	resp *Response
	err  error
}

// job is one queued unit of work.
type job struct {
	// ctx is the leading request's context: the run ends with it, and
	// joiners whose own contexts are still live then retry (see Do).
	ctx context.Context
	req *Request
	key string
	f   *flight
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Requests uint64 `json:"requests"` // accepted requests (past validation)
	Hits     uint64 `json:"hits"`     // served from the result cache
	Misses   uint64 `json:"misses"`   // led a fresh computation
	// Deduped counts requests that joined an identical in-flight
	// request. A joiner that re-runs after the leader's context ended is
	// counted by the path that finally serves it instead, so no request
	// is counted twice across Hits, Misses and Deduped.
	Deduped  uint64 `json:"deduped"`
	Executed uint64 `json:"executed"` // analyses actually run by workers
	Failures uint64 `json:"failures"` // executions that returned an error

	// Linter counters: executed requests that ran the linter (kind
	// "lint" or options.lint on an analyze kind) and the total
	// diagnostics they produced. Cache hits are not re-counted.
	LintRequests    uint64 `json:"lint_requests"`
	LintDiagnostics uint64 `json:"lint_diagnostics"`

	// Shed counters partition rejected load by reason: ShedQueue counts
	// requests bounced off the full queue (ErrQueueFull), ShedRate
	// requests denied by per-client admission control (ErrRateLimited).
	// Both are surfaced as 429 + Retry-After over HTTP.
	ShedQueue uint64 `json:"shed_queue"`
	ShedRate  uint64 `json:"shed_rate"`
	// Streams counts responses delivered incrementally (NDJSON or SSE).
	Streams uint64 `json:"streams"`

	// Batch counters: /v1/batch requests accepted, the items they
	// carried, and the items that failed (per-item errors never fail
	// the batch).
	Batches         uint64 `json:"batches"`
	BatchItems      uint64 `json:"batch_items"`
	BatchItemErrors uint64 `json:"batch_item_errors"`

	// Store snapshots the disk-backed result store's counters; nil when
	// the store is disabled.
	Store *store.Stats `json:"store,omitempty"`

	QueueDepth int `json:"queue_depth"` // queued, not yet picked up
	InFlight   int `json:"in_flight"`   // currently executing
	Workers    int `json:"workers"`
	CacheLen   int `json:"cache_len"`
	CacheCap   int `json:"cache_cap"`

	// UptimeSeconds is the time since New; PeakInFlight and
	// PeakQueueDepth are high-water marks of the matching gauges over
	// that window (capacity-planning view of the pool and queue).
	UptimeSeconds  float64 `json:"uptime_seconds"`
	PeakInFlight   int     `json:"peak_in_flight"`
	PeakQueueDepth int     `json:"peak_queue_depth"`

	// Cumulative phase timings over executed analyses (the paper's
	// preprocess / analysis / collection breakdown).
	PreprocUs    int64 `json:"preproc_us"`
	AnalysisUs   int64 `json:"analysis_us"`
	CollectionUs int64 `json:"collection_us"`

	// Engine aggregates the engine counters of every executed run on a
	// tabled kind (groundness, strictness, depthk, query). Cache hits
	// and deduped joins are not re-counted.
	Engine EngineReport `json:"engine"`
}

// HitRate returns cache hits over cache-decided requests (hits+misses).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Service is the concurrent analysis front end. Create with New, run
// requests with Do (or over HTTP via Handler), stop with Shutdown.
type Service struct {
	cfg    Config
	logger *slog.Logger
	jobs   chan *job
	wg     sync.WaitGroup
	cache  *lruCache
	disk   *store.Store // nil when Config.StoreDir is empty or unopenable
	adm    *admission   // nil when Config.RateLimit is 0
	start  time.Time
	debug  *tablesRegistry // /debug/tables live table watches

	mu       sync.Mutex // guards closed and inflight, and serializes submit vs Shutdown
	closed   bool
	inflight map[string]*flight

	requests, hits, misses, deduped, executed, failures atomic.Uint64
	lintRequests, lintDiagnostics                       atomic.Uint64
	shedQueue, shedRate, streams                        atomic.Uint64
	batches, batchItems, batchItemErrors                atomic.Uint64
	inFlightN                                           atomic.Int64
	peakInFlight, peakQueueDepth                        atomic.Int64
	preprocUs, analysisUs, collectionUs                 atomic.Int64

	// Engine-counter aggregates over executed runs (see Stats.Engine).
	engResolutions, engBuiltinCalls, engSubgoals, engAnswers atomic.Int64
	engProducerRuns, engProducerPasses, engTableBytes        atomic.Int64
	engSuspensions, engResumptions                           atomic.Int64
	engCallBytes, engAnswerBytes, engTableNodes              atomic.Int64
	engPredsCompiled, engCompileNanos, engProvenanceBytes    atomic.Int64

	// latency holds one request-duration histogram per kind; routes
	// holds one per HTTP route. Both maps are fixed at New and only read
	// afterwards, so lock-free access is safe.
	latency map[Kind]*obs.Histogram
	routes  map[string]*obs.Histogram
}

// New starts a service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Service{
		cfg:      cfg,
		logger:   logger,
		jobs:     make(chan *job, cfg.QueueSize),
		cache:    newLRU(cfg.CacheSize),
		start:    time.Now(),
		debug:    newTablesRegistry(),
		inflight: map[string]*flight{},
		latency:  map[Kind]*obs.Histogram{},
		routes:   map[string]*obs.Histogram{},
	}
	for _, k := range Kinds() {
		s.latency[k] = obs.NewHistogram(obs.DefBuckets...)
	}
	for _, route := range routePatterns {
		s.routes[route] = obs.NewHistogram(obs.DefBuckets...)
	}
	if cfg.StoreDir != "" {
		disk, err := store.Open(cfg.StoreDir, cfg.StoreMaxEntries)
		if err != nil {
			// Degrade, don't die: an unopenable store directory costs
			// warm restarts, not availability.
			logger.Error("disk store disabled", "dir", cfg.StoreDir, "err", err)
		} else {
			s.disk = disk
			logger.Info("disk store open", "dir", cfg.StoreDir, "entries", disk.Len())
		}
	}
	if cfg.RateLimit > 0 {
		s.adm = newAdmission(cfg.RateLimit, cfg.RateBurst, cfg.MaxClients)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	var diskStats *store.Stats
	if s.disk != nil {
		st := s.disk.Stats()
		diskStats = &st
	}
	return Stats{
		Requests:        s.requests.Load(),
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		Deduped:         s.deduped.Load(),
		Executed:        s.executed.Load(),
		Failures:        s.failures.Load(),
		LintRequests:    s.lintRequests.Load(),
		LintDiagnostics: s.lintDiagnostics.Load(),
		ShedQueue:       s.shedQueue.Load(),
		ShedRate:        s.shedRate.Load(),
		Streams:         s.streams.Load(),
		Batches:         s.batches.Load(),
		BatchItems:      s.batchItems.Load(),
		BatchItemErrors: s.batchItemErrors.Load(),
		Store:           diskStats,
		QueueDepth:      len(s.jobs),
		InFlight:        int(s.inFlightN.Load()),
		Workers:         s.cfg.Workers,
		CacheLen:        s.cache.Len(),
		CacheCap:        s.cfg.CacheSize,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		PeakInFlight:    int(s.peakInFlight.Load()),
		PeakQueueDepth:  int(s.peakQueueDepth.Load()),
		PreprocUs:       s.preprocUs.Load(),
		AnalysisUs:      s.analysisUs.Load(),
		CollectionUs:    s.collectionUs.Load(),
		Engine: EngineReport{
			Resolutions:     s.engResolutions.Load(),
			BuiltinCalls:    s.engBuiltinCalls.Load(),
			Subgoals:        s.engSubgoals.Load(),
			Answers:         s.engAnswers.Load(),
			ProducerRuns:    s.engProducerRuns.Load(),
			ProducerPasses:  s.engProducerPasses.Load(),
			Suspensions:     s.engSuspensions.Load(),
			Resumptions:     s.engResumptions.Load(),
			TableBytes:      s.engTableBytes.Load(),
			CallBytes:       s.engCallBytes.Load(),
			AnswerBytes:     s.engAnswerBytes.Load(),
			TableNodes:      s.engTableNodes.Load(),
			PredsCompiled:   s.engPredsCompiled.Load(),
			CompileNanos:    s.engCompileNanos.Load(),
			ProvenanceBytes: s.engProvenanceBytes.Load(),
		},
	}
}

// Shutdown stops accepting requests, drains the queue (queued and
// running requests complete normally), and waits for the workers to
// exit or ctx to end, whichever is first.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.jobs) // safe: submissions are guarded by s.closed under s.mu
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Shutdown without a deadline.
func (s *Service) Close() error { return s.Shutdown(context.Background()) }

// Do runs one request through cache, single-flight, and the worker
// pool, blocking until the result is available or ctx/timeout ends.
func (s *Service) Do(ctx context.Context, req *Request) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { s.latency[req.Kind].Observe(time.Since(start)) }()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		// Reject everything once shutdown has begun — even requests the
		// cache could answer — so clients migrate off a draining server.
		return nil, ErrClosed
	}
	s.requests.Add(1)
	ctx, reqID := ensureRequestID(ctx)
	s.logger.Info("request accepted",
		"req", reqID, "kind", req.Kind, "source_bytes", len(req.Source))

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	key := req.CacheKey()
	for {
		if resp, ok := s.cache.Get(key); ok {
			s.hits.Add(1)
			s.logger.Info("cache hit", "req", reqID, "kind", req.Kind, "key", key[:12])
			hit := resp.shallowCopy()
			hit.Cached = true
			return hit, nil
		}
		if resp, ok := s.storeGet(key); ok {
			// Warm restart path: the disk store under the LRU has this
			// result from a previous process (or an evicted LRU entry).
			// Promote it so repeats are memory hits.
			s.hits.Add(1)
			s.cache.Add(key, resp)
			s.logger.Info("disk store hit", "req", reqID, "kind", req.Kind, "key", key[:12])
			hit := resp.shallowCopy()
			hit.Cached, hit.Stored = true, true
			return hit, nil
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if f, ok := s.inflight[key]; ok {
			// An identical request is already queued or running: join it.
			s.mu.Unlock()
			s.logger.Info("joined in-flight computation", "req", reqID, "kind", req.Kind, "key", key[:12])
			resp, err := s.wait(ctx, f)
			if err != nil && ctx.Err() == nil &&
				(errors.Is(err, engine.ErrCanceled) || errors.Is(err, engine.ErrDeadline)) {
				// The flight ran on its leader's context, which ended;
				// this request's has not. Failures are never cached, so
				// go round again: a later flight, or a fresh run led by
				// this request.
				s.logger.Info("in-flight leader gave up; retrying", "req", reqID, "kind", req.Kind, "key", key[:12])
				continue
			}
			s.deduped.Add(1)
			if err != nil {
				return nil, err
			}
			resp = resp.shallowCopy()
			resp.Deduped = true
			return resp, nil
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		j := &job{ctx: ctx, req: req, key: key, f: f}
		select {
		case s.jobs <- j:
		default:
			delete(s.inflight, key)
			s.mu.Unlock()
			f.err = ErrQueueFull
			close(f.done)
			s.shedQueue.Add(1)
			s.logger.Warn("queue full", "req", reqID, "kind", req.Kind)
			return nil, ErrQueueFull
		}
		s.mu.Unlock()
		updateMax(&s.peakQueueDepth, int64(len(s.jobs)))
		s.misses.Add(1)
		return s.wait(ctx, f)
	}
}

// updateMax raises a high-water mark to v if v exceeds it.
func updateMax(mark *atomic.Int64, v int64) {
	for {
		cur := mark.Load()
		if v <= cur || mark.CompareAndSwap(cur, v) {
			return
		}
	}
}

// wait blocks until the flight resolves or ctx ends. The flight always
// resolves — workers drain the queue even during shutdown — so a ctx
// race near completion favors the available result.
func (s *Service) wait(ctx context.Context, f *flight) (*Response, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		select {
		case <-f.done:
		default:
			return nil, engine.CtxErr(ctx)
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.resp, nil
}

// worker is one pool goroutine: it owns at most one engine.Machine at a
// time (execute constructs machines that never escape the call), so the
// non-goroutine-safe engine is always confined to a single worker.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		updateMax(&s.peakInFlight, s.inFlightN.Add(1))
		resp, err := s.run(j)

		s.mu.Lock()
		delete(s.inflight, j.key)
		s.mu.Unlock()
		if err == nil {
			s.cache.Add(j.key, resp)
		}
		j.f.resp, j.f.err = resp, err
		close(j.f.done)
		// Write-through to disk after waiters are released: durability
		// work never adds latency to the request that paid for the run.
		if err == nil {
			s.storePut(j.key, resp)
		}
		s.inFlightN.Add(-1)
	}
}

// storeGet reads a response from the disk store. Any failure — store
// disabled, absent or corrupt entry, stale JSON schema — is a miss.
func (s *Service) storeGet(key string) (*Response, bool) {
	if s.disk == nil {
		return nil, false
	}
	payload, ok := s.disk.Get(key)
	if !ok {
		return nil, false
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		// The frame checksum held but the payload no longer parses as a
		// Response (e.g. written by an incompatible build): drop it like
		// any other corruption.
		s.disk.DropCorrupt(key)
		return nil, false
	}
	return &resp, true
}

// storePut persists a freshly computed response. Failures are logged,
// never surfaced: durability is best-effort under the LRU.
func (s *Service) storePut(key string, resp *Response) {
	if s.disk == nil {
		return
	}
	payload, err := json.Marshal(resp)
	if err == nil {
		err = s.disk.Put(key, payload)
	}
	if err != nil {
		s.logger.Warn("disk store write failed", "key", key[:12], "err", err)
	}
}

// Admit runs per-client admission control: it debits one token from
// client's bucket and reports whether the request may proceed, with a
// retry hint when it may not. Admission is a no-op (always true) when
// Config.RateLimit is 0. The HTTP layer calls this before decoding a
// request body; embedders driving Do directly can do the same.
func (s *Service) Admit(client string) (bool, time.Duration) {
	if s.adm == nil {
		return true, 0
	}
	ok, retry := s.adm.admit(client, time.Now())
	if !ok {
		s.shedRate.Add(1)
		s.logger.Warn("rate limited", "client", client, "retry_after", retry)
	}
	return ok, retry
}

// kindRunsEngine reports whether a kind evaluates on the tabled engine
// (and so produces tracer events for /debug/tables).
func kindRunsEngine(k Kind) bool {
	switch k {
	case KindGroundness, KindStrictness, KindDepthK, KindQuery, KindExplain:
		return true
	}
	return false
}

// run executes one job unless its context already expired in the queue.
func (s *Service) run(j *job) (*Response, error) {
	if err := engine.CtxErr(j.ctx); err != nil {
		return nil, err
	}
	s.executed.Add(1)
	reqID := RequestID(j.ctx)
	var tracer obs.EngineTracer
	if kindRunsEngine(j.req.Kind) {
		// Register the run with /debug/tables; the watch doubles as the
		// engine tracer so scrapes see the tables grow live.
		watch := s.debug.start(reqID, j.req.Kind)
		tracer = watch
		defer s.debug.finish(watch)
	}
	s.logger.Info("executing", "req", reqID, "kind", j.req.Kind)
	t0 := time.Now()
	resp, err := execute(j.ctx, j.req, tracer)
	if err != nil {
		s.failures.Add(1)
		s.logger.Warn("execution failed",
			"req", reqID, "kind", j.req.Kind, "dur_ms", time.Since(t0).Milliseconds(), "err", err)
		return nil, err
	}
	s.preprocUs.Add(resp.Timings.PreprocUs)
	s.analysisUs.Add(resp.Timings.AnalysisUs)
	s.collectionUs.Add(resp.Timings.CollectionUs)
	done := []any{"req", reqID, "kind", j.req.Kind, "dur_ms", time.Since(t0).Milliseconds()}
	if e := resp.Engine; e != nil {
		s.engResolutions.Add(e.Resolutions)
		s.engBuiltinCalls.Add(e.BuiltinCalls)
		s.engSubgoals.Add(e.Subgoals)
		s.engAnswers.Add(e.Answers)
		s.engProducerRuns.Add(e.ProducerRuns)
		s.engProducerPasses.Add(e.ProducerPasses)
		s.engSuspensions.Add(e.Suspensions)
		s.engResumptions.Add(e.Resumptions)
		s.engTableBytes.Add(e.TableBytes)
		s.engCallBytes.Add(e.CallBytes)
		s.engAnswerBytes.Add(e.AnswerBytes)
		s.engTableNodes.Add(e.TableNodes)
		s.engPredsCompiled.Add(e.PredsCompiled)
		s.engCompileNanos.Add(e.CompileNanos)
		s.engProvenanceBytes.Add(e.ProvenanceBytes)
		done = append(done,
			"resolutions", e.Resolutions, "subgoals", e.Subgoals,
			"answers", e.Answers, "table_bytes", e.TableBytes)
	}
	if j.req.Kind == KindLint || (j.req.Options.Lint && j.req.Kind != KindQuery) {
		s.lintRequests.Add(1)
		s.lintDiagnostics.Add(uint64(len(resp.Diagnostics)))
	}
	s.logger.Info("executed", done...)
	return resp, nil
}

// execute dispatches a validated request to its analyzer under ctx.
// tracer, when non-nil, is installed on the engine behind tabled kinds
// (the /debug/tables live watch).
func execute(ctx context.Context, req *Request, tracer obs.EngineTracer) (*Response, error) {
	var resp *Response
	switch req.Kind {
	case KindGroundness:
		a, err := prop.Analyze(req.Source, analysisOptions(ctx, req, tracer))
		if err != nil {
			return nil, err
		}
		resp = FromGroundness(a)
	case KindGAIA:
		a, err := gaia.AnalyzeEntries(ctx, req.Source, req.Options.Entry)
		if err != nil {
			return nil, err
		}
		resp = FromGAIA(a)
	case KindBDD:
		a, err := bddprop.AnalyzeCtx(ctx, req.Source)
		if err != nil {
			return nil, err
		}
		resp = FromBDD(a)
	case KindStrictness:
		a, err := strict.Analyze(req.Source, analysisOptions(ctx, req, tracer))
		if err != nil {
			return nil, err
		}
		resp = FromStrictness(a)
	case KindDepthK:
		a, err := depthk.Analyze(req.Source, analysisOptions(ctx, req, tracer))
		if err != nil {
			return nil, err
		}
		resp = FromDepthK(a)
	case KindQuery:
		return executeQuery(ctx, req, tracer)
	case KindExplain:
		return executeExplain(ctx, req, tracer)
	case KindLint:
		t0 := time.Now()
		resp = FromLint(runLint(req.Source, req.canonicalOptions()))
		us := time.Since(t0).Microseconds()
		resp.Timings = Timings{AnalysisUs: us, TotalUs: us}
		return resp, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, req.Kind)
	}
	if req.Options.Lint {
		attachLint(resp, req)
	}
	return resp, nil
}

// analysisOptions maps a request to the tabled analyzers' options. It
// reads the canonical options, so a field the cache key leaves out for
// the kind cannot change the result. Explain runs record provenance and
// never slice: a sliced run would not know the predicates outside the
// entries' cone.
func analysisOptions(ctx context.Context, req *Request, tracer obs.EngineTracer) analysis.Options {
	o := req.canonicalOptions()
	return analysis.Options{
		Mode:            o.engineMode(),
		Tables:          o.engineTables(),
		Limits:          o.engineLimits(),
		Entry:           o.Entry,
		Slice:           req.Options.Slice && req.Kind != KindExplain,
		Ctx:             ctx,
		Tracer:          tracer,
		Provenance:      req.Kind == KindExplain,
		NoSupplementary: o.NoSupplementary,
		K:               o.K,
	}
}

// executeExplain runs a provenance-enabled analysis (groundness, or
// strictness when options.lang is "fl") and returns the justification
// DAG of the requested predicate's recorded answers.
func executeExplain(ctx context.Context, req *Request, tracer obs.EngineTracer) (*Response, error) {
	opts := analysisOptions(ctx, req, tracer)
	var rep *analysis.Report
	if req.Options.Lang == "fl" {
		a, err := strict.Analyze(req.Source, opts)
		if err != nil {
			return nil, err
		}
		rep = &a.Report
	} else {
		a, err := prop.Analyze(req.Source, opts)
		if err != nil {
			return nil, err
		}
		rep = &a.Report
	}
	d, err := rep.Explain(req.Options.Pred, req.Options.MaxNodes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	resp := fromReport(KindExplain, rep)
	resp.Derivation = d
	return resp, nil
}

// executeQuery consults the program on a fresh machine and runs the
// goal, returning every solution in derivation order.
func executeQuery(ctx context.Context, req *Request, tracer obs.EngineTracer) (*Response, error) {
	o := req.Options
	t0 := time.Now()
	m := engine.New()
	m.Mode = o.engineMode()
	m.Tables = o.engineTables()
	m.Limits = o.engineLimits()
	m.SetContext(ctx)
	m.SetTracer(tracer)
	if err := m.Consult(req.Source); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(o.Table) > 0 {
		m.Table(o.Table...)
	}
	preproc := time.Since(t0)

	t1 := time.Now()
	sols, err := m.Query(o.Goal)
	if err != nil {
		return nil, err
	}
	analysis := time.Since(t1)

	resp := &Response{
		Kind: KindQuery,
		Timings: Timings{
			PreprocUs:  preproc.Microseconds(),
			AnalysisUs: analysis.Microseconds(),
			TotalUs:    (preproc + analysis).Microseconds(),
		},
		TableBytes: m.TableSpace(),
		Engine:     engineReport(m.Stats()),
		Solutions:  make([]string, 0, len(sols)),
	}
	// Canonical names variables by first occurrence, so the text does
	// not depend on how many variables the process made before.
	for _, t := range sols {
		resp.Solutions = append(resp.Solutions, term.Canonical(t))
	}
	return resp, nil
}
