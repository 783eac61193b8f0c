// Package soak drives the analysis service the way sustained production
// load does: many clients hammering a mixed diet of generated programs
// (every randgen shape, including the Genaim/Howe/Codish worst-case
// groundness families), limit-tripping and divergent requests, streamed
// and buffered transports, randomized client cancellation, and daemon
// kill/restart injection over one shared disk store — then it audits the
// wreckage. The soak passes only if every observed outcome is a
// sentinel one (2xx, or the expected 422/504/429-with-Retry-After
// classes), restarted daemons serve repeated requests warm from the
// disk store, and tail latency stays under the configured SLO. The
// test wrapper (TestSoakSmoke) adds goroutine-leak and heap-growth
// assertions around Run.
package soak

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xlp/internal/randgen"
	"xlp/internal/service"
)

// Config sizes a soak run. Zero fields take defaults.
type Config struct {
	// Requests is the mixed-phase request count (default 2000).
	Requests int
	// Concurrency is the client goroutine count (default 8x GOMAXPROCS).
	Concurrency int
	// Restarts is how many times the daemon is killed and restarted on
	// the same store directory during the mixed phase (default 3).
	Restarts int
	// CancelEvery injects a client-side cancellation on every Nth
	// request (default 17; 0 disables injection).
	CancelEvery int
	// Seed makes the probe schedule reproducible.
	Seed int64
	// StoreDir roots the disk store shared across restarts (required).
	StoreDir string
	// P99SLO bounds the 99th-percentile latency of successful requests
	// (default 5s — generous, the gate is for regressions measured in
	// multiples, not milliseconds).
	P99SLO time.Duration
	// WarmHitRatio is the required fraction of previously succeeded
	// requests a restarted daemon must serve from the disk store
	// (default 0.9).
	WarmHitRatio float64
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8 * runtime.GOMAXPROCS(0)
	}
	if c.Restarts <= 0 {
		c.Restarts = 3
	}
	if c.CancelEvery == 0 {
		c.CancelEvery = 17
	}
	if c.P99SLO <= 0 {
		c.P99SLO = 5 * time.Second
	}
	if c.WarmHitRatio <= 0 {
		c.WarmHitRatio = 0.9
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Result is the audited outcome of a soak run.
type Result struct {
	Requests int // mixed-phase requests issued
	Restarts int // kill/restart injections performed

	// Outcome classes. The mixed phase contributes exactly Requests
	// outcomes across them; the admission shed probe adds its 429s to
	// ShedRate on top.
	OK        int // 2xx
	Limit     int // 422 on a limit-tripping or malformed probe
	Deadline  int // 504 on a divergent probe with a tight timeout
	ShedQueue int // 429, queue full (Retry-After verified)
	ShedRate  int // 429, admission rate (Retry-After verified)
	Canceled  int // injected client cancellation won the race

	// Stored/Cached/Deduped break down the OK responses by how they
	// were served.
	Stored, Cached, Deduped int

	// Unexpected lists non-sentinel outcomes (capped). Empty on a
	// passing run.
	Unexpected []string

	// P99 is the 99th-percentile latency over successful requests.
	P99 time.Duration

	// Warm-phase audit: of WarmUnique previously succeeded unique
	// requests replayed against a freshly restarted daemon, WarmStored
	// came back flagged as disk-store hits.
	WarmUnique, WarmStored int

	// Stats is the final /v1/stats snapshot of the warm daemon.
	Stats service.Stats
}

// WarmRatio is the fraction of replayed requests served from the store.
func (r *Result) WarmRatio() float64 {
	if r.WarmUnique == 0 {
		return 0
	}
	return float64(r.WarmStored) / float64(r.WarmUnique)
}

// Err folds the run's acceptance criteria into one error.
func (r *Result) Err(cfg Config) error {
	cfg = cfg.withDefaults()
	var problems []string
	if len(r.Unexpected) > 0 {
		problems = append(problems, fmt.Sprintf("%d non-sentinel outcomes, first: %s",
			len(r.Unexpected), r.Unexpected[0]))
	}
	if r.P99 > cfg.P99SLO {
		problems = append(problems, fmt.Sprintf("p99 %v over SLO %v", r.P99, cfg.P99SLO))
	}
	if r.WarmRatio() < cfg.WarmHitRatio {
		problems = append(problems, fmt.Sprintf("warm store hits %d/%d (%.0f%%) under the %.0f%% floor",
			r.WarmStored, r.WarmUnique, 100*r.WarmRatio(), 100*cfg.WarmHitRatio))
	}
	if r.ShedRate == 0 {
		problems = append(problems, "admission control never shed (probe did not bite)")
	}
	if len(problems) > 0 {
		return errors.New("soak: " + strings.Join(problems, "; "))
	}
	return nil
}

// probe is one request template with its expected outcome class.
type probe struct {
	name   string
	kind   service.Kind
	path   string
	body   apiBody
	class  string // "ok", "limit", "deadline", "batch"
	stream bool
	warm   bool // replayed in the warm phase when it succeeded

	// batch items (class "batch"); sent as {"items": ...} instead of
	// body.
	batch []batchProbeItem
}

// batchProbeItem is one /v1/batch item template. expectErr marks items
// that must fail (their failure is the probe's point); it is not
// marshaled.
type batchProbeItem struct {
	Kind    service.Kind    `json:"kind"`
	Source  string          `json:"source"`
	Options service.Options `json:"options"`

	expectErr bool
}

// key is the probe's service-side content address. Distinct probes can
// legitimately collide (two generator seeds can emit byte-identical
// programs); the warm audit dedupes on this.
func (p probe) key() string {
	return (&service.Request{Kind: p.kind, Source: p.body.Source, Options: p.body.Options}).CacheKey()
}

// apiBody mirrors the service's HTTP request body.
type apiBody struct {
	Source    string          `json:"source"`
	Options   service.Options `json:"options"`
	TimeoutMs int             `json:"timeout_ms,omitempty"`
}

// divergentSrc backtracks effectively forever at constant depth without
// tripping any resource limit — the deadline probe's fuel.
const divergentSrc = `
p(0). p(1). p(2). p(3).
slow :- p(A1),p(A2),p(A3),p(A4),p(A5),p(A6),p(A7),p(A8),
        p(B1),p(B2),p(B3),p(B4),p(B5),p(B6),p(B7),p(B8),
        A1 = A2, B1 = B2, fail.
`

// buildProbes assembles the mixed-load corpus: every generator shape
// (worst-case families at elevated size), every transport, and the
// failure classes the service is specified to map to sentinels.
func buildProbes() []probe {
	var ps []probe
	analyzeReq := func(shape randgen.Shape, seed int64, cfg randgen.Config) probe {
		cfg.Shape, cfg.Seed = shape, seed
		g := randgen.Generate(cfg)
		path, kind := "/v1/analyze/groundness", "groundness"
		if g.Lang == randgen.LangFL {
			path, kind = "/v1/analyze/strictness", "strictness"
		}
		return probe{
			name:  fmt.Sprintf("%s-%s-%d", kind, shape, seed),
			kind:  service.Kind(kind),
			path:  path,
			body:  apiBody{Source: g.Source},
			class: "ok",
			warm:  true,
		}
	}
	for _, shape := range randgen.Shapes() {
		for seed := int64(0); seed < 4; seed++ {
			ps = append(ps, analyzeReq(shape, seed, randgen.Config{}))
		}
	}
	// Worst-case Def/Pos at elevated chain length: the boolean-blowup
	// stress the families were built for.
	for _, shape := range []randgen.Shape{randgen.WorstDef, randgen.WorstPos} {
		for seed := int64(10); seed < 14; seed++ {
			ps = append(ps, analyzeReq(shape, seed, randgen.Config{Preds: 6}))
		}
	}
	// Streamed query with a wide answer set.
	var facts strings.Builder
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&facts, "d(%d).\n", i)
	}
	ps = append(ps,
		probe{
			name: "query-stream", kind: service.KindQuery, path: "/v1/query",
			class: "ok", stream: true, warm: true,
			body: apiBody{Source: facts.String(), Options: service.Options{Goal: "d(X)", Stream: true}},
		},
		probe{
			name: "lint", kind: service.KindLint, path: "/v1/lint", class: "ok", warm: true,
			body: apiBody{Source: "ap([], L, L).\nap([H|T], L, [H|R]) :- ap(T, L, R)."},
		},
		probe{
			name: "bdd", kind: service.KindBDD, path: "/v1/analyze/bdd", class: "ok", warm: true,
			body: apiBody{Source: "ap([], L, L).\nap([H|T], L, [H|R]) :- ap(T, L, R)."},
		},
		// Limit-tripping: an infinite tabled generator under MaxAnswers
		// must surface ErrAnswerLimit (422), never hang or crash.
		probe{
			name: "answer-limit", path: "/v1/query", class: "limit",
			body: apiBody{
				Source:  ":- table n/1.\nn(z).\nn(s(X)) :- n(X).",
				Options: service.Options{Goal: "n(X)", MaxAnswers: 5},
			},
		},
		// Malformed program: a parse failure is a 422 sentinel too.
		probe{
			name: "parse-error", path: "/v1/analyze/groundness", class: "limit",
			body: apiBody{Source: "a :- ."},
		},
		// Divergent under a tight deadline: 504 within the budget.
		probe{
			name: "deadline", path: "/v1/query", class: "deadline",
			body: apiBody{Source: divergentSrc, Options: service.Options{Goal: "slow"}, TimeoutMs: 25},
		},
	)
	// Batch probes: several programs per request, items running
	// concurrently through the worker pool; the partial variant carries
	// known-bad items whose failure must stay contained to their slots.
	batchItems := []batchProbeItem{
		{Kind: service.KindGroundness, Source: ":- table anc/2.\n" +
			"par(a,b). par(b,c). par(c,d).\nanc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y)."},
		{Kind: service.KindQuery, Source: "d(1). d(2). d(3).", Options: service.Options{Goal: "d(X)"}},
		{Kind: service.KindLint, Source: "ap([], L, L).\nap([H|T], L, [H|R]) :- ap(T, L, R)."},
	}
	ps = append(ps,
		probe{name: "batch-mixed", path: "/v1/batch", class: "batch", batch: batchItems},
		probe{name: "batch-partial", path: "/v1/batch", class: "batch",
			batch: append(batchItems[:2:2],
				batchProbeItem{Kind: service.KindGroundness, Source: "p(", expectErr: true},
				batchProbeItem{Kind: service.Kind("nosuch"), Source: "a.", expectErr: true})},
	)
	return ps
}

// auditBatch validates a /v1/batch 200: every item answered in its
// slot, known-bad items failed, and good items either succeeded or were
// shed by the bounded queue — the only sentinel item failure under soak
// concurrency (a request holds the restart read lock for its whole
// round trip, so items never race a shutdown).
func auditBatch(p probe, body []byte) string {
	var br struct {
		Items   int `json:"items"`
		Results []struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		return fmt.Sprintf("undecodable batch body: %v", err)
	}
	if br.Items != len(p.batch) || len(br.Results) != len(p.batch) {
		return fmt.Sprintf("batch answered %d/%d items", len(br.Results), len(p.batch))
	}
	for i, r := range br.Results {
		if r.Index != i {
			return fmt.Sprintf("item %d answered out of order (index %d)", i, r.Index)
		}
		if p.batch[i].expectErr {
			if r.Error == "" {
				return fmt.Sprintf("item %d (known-bad) succeeded", i)
			}
			continue
		}
		if r.Error != "" && !strings.Contains(r.Error, "queue full") {
			return fmt.Sprintf("item %d: non-sentinel error %q", i, r.Error)
		}
	}
	return ""
}

// daemon wraps one service + HTTP server generation. Requests hold the
// read lock for their whole round trip; restart takes the write lock,
// so a kill never yields client-visible connection errors — exactly the
// behavior of a drain-then-exec rolling restart.
type daemon struct {
	svcCfg service.Config

	mu  sync.RWMutex
	svc *service.Service
	srv *httptest.Server
}

func (d *daemon) start() {
	d.svc = service.New(d.svcCfg)
	d.srv = httptest.NewServer(service.RequestIDMiddleware(d.svc.Handler()))
}

func (d *daemon) restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.srv.Close()
	d.svc.Close() //nolint:errcheck // fresh generation follows regardless
	d.start()
}

func (d *daemon) stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.srv.Close()
	d.svc.Close() //nolint:errcheck
}

// outcome is one request's classified result.
type outcome struct {
	status     int
	err        error // transport error (nil on any HTTP response)
	retryAfter string
	body       []byte
	dur        time.Duration
	stored     bool // 200 served from the disk store
	cached     bool
	deduped    bool
	streamDone bool // streamed 200 reached its trailer
}

// do issues one probe. When cancelAfter > 0 the request context is
// canceled after that delay — the injected client hangup.
func (d *daemon) do(p probe, client string, cancelAfter time.Duration) outcome {
	d.mu.RLock()
	defer d.mu.RUnlock()

	var buf []byte
	var err error
	if len(p.batch) > 0 {
		buf, err = json.Marshal(struct {
			Items []batchProbeItem `json:"items"`
		}{p.batch})
	} else {
		buf, err = json.Marshal(p.body)
	}
	if err != nil {
		return outcome{err: err}
	}
	ctx := context.Background()
	if cancelAfter > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cancelAfter)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, "POST", d.srv.URL+p.path, bytes.NewReader(buf))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ClientIDHeader, client)

	t0 := time.Now()
	resp, err := d.srv.Client().Do(req)
	if err != nil {
		return outcome{err: err, dur: time.Since(t0)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	o := outcome{
		status:     resp.StatusCode,
		err:        err,
		retryAfter: resp.Header.Get("Retry-After"),
		body:       data,
		dur:        time.Since(t0),
	}
	if o.status == http.StatusOK && o.err == nil {
		if p.stream {
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			var header struct {
				Cached bool `json:"cached"`
				Stored bool `json:"stored"`
			}
			var trailer struct {
				Done bool `json:"done"`
			}
			if len(lines) >= 2 &&
				json.Unmarshal([]byte(lines[0]), &header) == nil &&
				json.Unmarshal([]byte(lines[len(lines)-1]), &trailer) == nil {
				o.cached, o.stored, o.streamDone = header.Cached, header.Stored, trailer.Done
			}
		} else {
			var r service.Response
			if err := json.Unmarshal(data, &r); err != nil {
				o.err = fmt.Errorf("undecodable 200 body: %w", err)
			} else {
				o.cached, o.stored, o.deduped = r.Cached, r.Stored, r.Deduped
			}
		}
	}
	return o
}

// stats fetches the live /v1/stats counters.
func (d *daemon) stats() (service.Stats, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	resp, err := d.srv.Client().Get(d.srv.URL + "/v1/stats")
	if err != nil {
		return service.Stats{}, err
	}
	defer resp.Body.Close()
	var st struct{ service.Stats }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.Stats{}, err
	}
	return st.Stats, nil
}

// Run executes the soak: the mixed phase under restart and cancel
// injection, the admission shed probe, and the warm-restart audit.
// It returns the classified Result; Result.Err folds in the pass/fail
// criteria so the caller separates "the run completed" from "the run
// passed".
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.StoreDir == "" {
		return nil, errors.New("soak: Config.StoreDir is required")
	}
	probes := buildProbes()
	d := &daemon{svcCfg: service.Config{
		Workers:   2 * runtime.GOMAXPROCS(0),
		QueueSize: 4 * cfg.Concurrency,
		CacheSize: 64, // smaller than the probe corpus: LRU evictions send reads to the disk store
		StoreDir:  cfg.StoreDir,
		RateLimit: 100, RateBurst: 100, // generous for the workers; the hammer probe overruns it
	}}
	d.start()
	defer d.stop()

	res := &Result{Requests: cfg.Requests}
	var (
		mu         sync.Mutex
		durations  []time.Duration
		succeeded  = make([]atomic.Bool, len(probes))
		issued     atomic.Int64 // next request number (1-based)
		completed  atomic.Int64
		ok, limit  atomic.Int64
		deadline   atomic.Int64
		shedQ      atomic.Int64
		shedR      atomic.Int64
		canceled   atomic.Int64
		stored     atomic.Int64
		cachedN    atomic.Int64
		deduped    atomic.Int64
		unexpected = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			if len(res.Unexpected) < 20 {
				res.Unexpected = append(res.Unexpected, fmt.Sprintf(format, args...))
			}
		}
	)

	classify := func(p probe, o outcome, injected bool) {
		if o.err != nil {
			if injected {
				canceled.Add(1)
				return
			}
			unexpected("%s: transport error: %v", p.name, o.err)
			return
		}
		switch o.status {
		case http.StatusOK:
			ok.Add(1)
			if p.class == "batch" {
				// An injected cancel can truncate the item results the
				// server managed to flush; audit only clean runs.
				if !injected {
					if msg := auditBatch(p, o.body); msg != "" {
						unexpected("%s: %s", p.name, msg)
						return
					}
				}
				mu.Lock()
				durations = append(durations, o.dur)
				mu.Unlock()
				return
			}
			if p.stream && !o.streamDone && !injected {
				unexpected("%s: stream ended without its done trailer", p.name)
				return
			}
			if o.stored {
				stored.Add(1)
			}
			if o.cached {
				cachedN.Add(1)
			}
			if o.deduped {
				deduped.Add(1)
			}
			mu.Lock()
			durations = append(durations, o.dur)
			mu.Unlock()
		case http.StatusTooManyRequests:
			if secs, err := strconv.Atoi(o.retryAfter); err != nil || secs < 1 {
				unexpected("%s: 429 with Retry-After %q", p.name, o.retryAfter)
				return
			}
			if strings.Contains(string(o.body), "queue full") {
				shedQ.Add(1)
			} else if strings.Contains(string(o.body), "rate limited") {
				shedR.Add(1)
			} else {
				unexpected("%s: 429 of unknown class: %s", p.name, o.body)
			}
		case http.StatusUnprocessableEntity:
			if p.class != "limit" {
				unexpected("%s: unexpected 422: %s", p.name, o.body)
				return
			}
			limit.Add(1)
		case http.StatusGatewayTimeout:
			if p.class != "deadline" {
				unexpected("%s: unexpected 504: %s", p.name, o.body)
				return
			}
			deadline.Add(1)
		case 499:
			// The injected cancel reached the server before the client
			// noticed; same sentinel, other side of the race.
			if !injected {
				unexpected("%s: 499 without an injected cancel", p.name)
				return
			}
			canceled.Add(1)
		default:
			unexpected("%s: status %d: %s", p.name, o.status, o.body)
		}
	}

	// Restart controller: kill/restart the daemon at evenly spaced
	// points of the mixed phase.
	restartsDone := make(chan struct{})
	go func() {
		defer close(restartsDone)
		for i := 1; i <= cfg.Restarts; i++ {
			threshold := int64(cfg.Requests * i / (cfg.Restarts + 1))
			for completed.Load() < threshold {
				time.Sleep(2 * time.Millisecond)
			}
			cfg.Logf("soak: restart %d/%d after %d requests", i, cfg.Restarts, completed.Load())
			d.restart()
			res.Restarts++
		}
	}()

	cfg.Logf("soak: mixed phase: %d requests, %d clients, %d probes, %d restarts",
		cfg.Requests, cfg.Concurrency, len(probes), cfg.Restarts)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			client := fmt.Sprintf("soak-%d", w)
			for {
				n := issued.Add(1)
				if n > int64(cfg.Requests) {
					return
				}
				idx := rng.Intn(len(probes))
				p := probes[idx]
				var cancelAfter time.Duration
				injected := cfg.CancelEvery > 0 && n%int64(cfg.CancelEvery) == 0
				if injected {
					cancelAfter = time.Duration(1+rng.Intn(10)) * time.Millisecond
				}
				o := d.do(p, client, cancelAfter)
				if o.err == nil && o.status == http.StatusOK {
					succeeded[idx].Store(true)
				}
				classify(p, o, injected)
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	<-restartsDone

	// Admission shed probe: one client bursts past its bucket faster
	// than the refill rate until the overflow sheds as 429 +
	// Retry-After (validated by classify). Cached lint responses are
	// sub-millisecond, so the burst outruns the bucket quickly; the
	// iteration cap only guards against a pathological environment.
	cheap := probe{name: "hammer", path: "/v1/lint", class: "ok",
		body: apiBody{Source: "h(a)."}}
	hammerShed, hammerSent := 0, 0
	for i := 0; i < 5000 && hammerShed < 4; i++ {
		o := d.do(cheap, "hammer", 0)
		hammerSent++
		if o.err != nil {
			unexpected("hammer: transport error: %v", o.err)
			break
		}
		if o.status == http.StatusTooManyRequests {
			classify(cheap, o, false)
			hammerShed++
		}
	}
	if hammerShed == 0 {
		unexpected("hammer: burst of %d never shed", hammerSent)
	}
	cfg.Logf("soak: hammer probe shed %d of %d burst requests", hammerShed, hammerSent)

	// Warm-restart audit: bounce the daemon once more, then replay each
	// previously succeeded unique request; the disk store must answer.
	d.restart()
	res.Restarts++
	seenKeys := map[string]bool{}
	for idx, p := range probes {
		if !p.warm || !succeeded[idx].Load() {
			continue
		}
		// Distinct seeds occasionally emit byte-identical programs; the
		// second replay of a shared key is a memory hit (the first one
		// promoted it from disk), so audit each key once.
		if k := p.key(); seenKeys[k] {
			continue
		} else {
			seenKeys[k] = true
		}
		warm := p
		warm.body.Options.Stream = false // same cache key, simpler audit
		warm.stream = false
		o := d.do(warm, "warm-audit", 0)
		if o.err != nil || o.status != http.StatusOK {
			unexpected("warm %s: status %d err %v", p.name, o.status, o.err)
			continue
		}
		res.WarmUnique++
		if o.stored {
			res.WarmStored++
		}
	}
	cfg.Logf("soak: warm audit: %d/%d served from the disk store", res.WarmStored, res.WarmUnique)

	st, err := d.stats()
	if err != nil {
		unexpected("final stats fetch: %v", err)
	}
	res.Stats = st
	if st.Store == nil {
		unexpected("daemon ran storeless (store stats absent)")
	} else if res.WarmUnique > 0 && st.Store.Hits < uint64(res.WarmStored) {
		unexpected("store hit counter %d below audited hits %d", st.Store.Hits, res.WarmStored)
	}

	res.OK = int(ok.Load())
	res.Limit = int(limit.Load())
	res.Deadline = int(deadline.Load())
	res.ShedQueue = int(shedQ.Load())
	res.ShedRate = int(shedR.Load())
	res.Canceled = int(canceled.Load())
	res.Stored = int(stored.Load())
	res.Cached = int(cachedN.Load())
	res.Deduped = int(deduped.Load())
	res.P99 = percentile(durations, 0.99)
	return res, nil
}

// percentile returns the pth percentile of ds (0 when empty).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p * float64(len(ds)-1))
	return ds[i]
}
