package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xlp/internal/bddprop"
	"xlp/internal/boolfn"
	"xlp/internal/corpus"
	"xlp/internal/randgen"
	"xlp/internal/service"
	"xlp/internal/strict"
)

// serveSpec fixes one serving workload's load: three arrival rates (low,
// reference, high) at about 10, 25 and 60 % of the highest rate that met
// the latency limit on the reference host, and the p99 latency a step
// must meet to pass. The reference rate sits low because latency there
// is mostly service time, which varies less between runs than queueing.
type serveSpec struct {
	rates [3]float64 // requests per second
	limit time.Duration
}

var serveSpecs = map[string]serveSpec{
	"serve-hot":  {rates: [3]float64{170, 425, 1020}, limit: 10 * time.Millisecond},
	"serve-cold": {rates: [3]float64{90, 225, 540}, limit: 25 * time.Millisecond},
}

const (
	// clientConns is the client's connection count: one dispatcher hands
	// requests to this many senders, each holding one keep-alive
	// connection, so requests queue in the client when both are busy.
	clientConns = 2
	// setupReps is how many times a serving workload sets up from
	// scratch; setup_s is the median.
	setupReps = 3
	// coldWarmup is the number of requests, from seeds disjoint from the
	// timed ones, that serve-cold sends before it counts as ready; with
	// fewer, the first timed step still ran measurably slower than later
	// ones.
	coldWarmup = 200
	// drainGrace is how long after a step's last arrival its requests may
	// take to complete before the step counts as backlogged.
	drainGrace = time.Second
)

// input is one request the client can send.
type input struct {
	path   string // /v1/analyze/<kind>
	body   []byte
	kind   service.Kind
	src    string
	golden string // serve-hot: golden key of the expected result
}

func newInput(kind service.Kind, src, golden string) *input {
	body, err := json.Marshal(struct {
		Source string `json:"source"`
	}{src})
	if err != nil {
		panic(err) // a struct holding one string always marshals
	}
	return &input{path: "/v1/analyze/" + string(kind), body: body, kind: kind, src: src, golden: golden}
}

// hotPool is the 22 corpus programs, groundness for the logic ones and
// strictness for the functional ones, in corpus order. The order is the
// popularity rank, fixed so that every seed sees the same mix.
func hotPool(toy bool) []*input {
	var out []*input
	for _, p := range corpus.LogicPrograms() {
		if !toy || toyPrograms[p.Name] {
			out = append(out, newInput(service.KindGroundness, p.Source, "prop/"+p.Name))
		}
	}
	for _, p := range corpus.FuncPrograms() {
		if !toy || toyPrograms[p.Name] {
			out = append(out, newInput(service.KindStrictness, p.Source, "strict/"+p.Name))
		}
	}
	return out
}

// coldGen hands out distinct generated programs: every randgen shape in
// turn, skipping any source it has handed out before.
type coldGen struct {
	shapes []randgen.Shape
	base   int64 // first randgen seed
	next   int64
	seen   map[[32]byte]bool
	dups   int
}

func newColdGen(seen map[[32]byte]bool, base int64) *coldGen {
	return &coldGen{shapes: randgen.Shapes(), base: base, seen: seen}
}

func (g *coldGen) take(n int) []*input {
	out := make([]*input, 0, n)
	for len(out) < n {
		i := g.next
		g.next++
		shape := g.shapes[i%int64(len(g.shapes))]
		p := randgen.Generate(randgen.Config{Shape: shape, Seed: g.base + i/int64(len(g.shapes))})
		key := sha256.Sum256([]byte(p.Source))
		if g.seen[key] {
			g.dups++
			continue
		}
		g.seen[key] = true
		kind := service.KindGroundness
		if p.Lang == randgen.LangFL {
			kind = service.KindStrictness
		}
		out = append(out, newInput(kind, p.Source, ""))
	}
	return out
}

// handlerSpans records the server-side span of each request, keyed by its
// X-Request-ID, while on.
type handlerSpans struct {
	on atomic.Bool
	mu sync.Mutex
	m  map[string][2]time.Time
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		id := r.Header.Get(service.RequestIDHeader)
		h.mu.Lock()
		h.m[id] = [2]time.Time{start, end}
		h.mu.Unlock()
	})
}

// take returns the recorded spans and starts a fresh map.
func (h *handlerSpans) take() map[string][2]time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.m
	h.m = map[string][2]time.Time{}
	return m
}

// server is the service under test on a loopback listener, and the
// client that drives it.
type server struct {
	svc   *service.Service
	srv   *http.Server
	done  chan error
	base  string
	hc    *http.Client
	spans *handlerSpans // nil unless traced
	dir   string        // serve-cold store directory, removed on stop
}

// startServer builds the service the way xlpd builds it by default
// (GOMAXPROCS workers, queue 128, cache 256, no rate limit, info-level
// JSON logs, here discarded) and serves its handler on 127.0.0.1:0.
func startServer(storeDir string, traced bool) (*server, error) {
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	svc := service.New(service.Config{QueueSize: 128, CacheSize: 256, StoreDir: storeDir, Logger: logger})
	h := service.RequestIDMiddleware(svc.Handler())
	s := &server{svc: svc, dir: storeDir, done: make(chan error, 1)}
	if traced {
		s.spans = &handlerSpans{m: map[string][2]time.Time{}}
		h = s.spans.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close() // the listen error is the one to report
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.hc = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// stop shuts the listener and the service down, waits for both, and
// removes the store directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// call is one request of a step.
type call struct {
	in                       *input
	reqID                    string
	due, handoff, sent, done time.Time
	status                   int
	size                     int
	sum                      [32]byte // SHA-256 of the response body
	err                      error
	info                     *checked // set when the step is checked
}

func (c *call) latency() float64 { return ms(c.done.Sub(c.due)) }

// bodyKey identifies one distinct response to one input.
type bodyKey struct {
	in  *input
	sum [32]byte
}

// send runs one request and keeps the first copy of each distinct
// response body for the check after the step.
func (s *server) send(c *call, bodies *bodyStore) {
	req, err := http.NewRequest(http.MethodPost, s.base+c.in.path, bytes.NewReader(c.in.body))
	if err != nil {
		c.err, c.sent, c.done = err, time.Now(), time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.RequestIDHeader, c.reqID)
	c.sent = time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		c.err, c.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.done = time.Now()
	c.status, c.err, c.size = resp.StatusCode, err, len(body)
	if err == nil && c.status == http.StatusOK {
		c.sum = sha256.Sum256(body)
		bodies.keep(bodyKey{c.in, c.sum}, body)
	}
}

// bodyStore holds one copy of each distinct response until it is checked.
type bodyStore struct {
	mu sync.Mutex
	m  map[bodyKey][]byte
}

func newBodyStore() *bodyStore { return &bodyStore{m: map[bodyKey][]byte{}} }

func (b *bodyStore) keep(k bodyKey, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[k]; !ok {
		b.m[k] = body
	}
}

// checked is what the check of one distinct response found.
type checked struct {
	ok      bool
	problem string
	resp    service.Response
}

// stepResult is what one step measured.
type stepResult struct {
	name  string
	rate  float64
	calls []*call
	pass  bool
	why   string // reason a step failed
	p50   float64
	p99   float64
	tail  float64 // the highest percentile with ten requests beyond it
	pTail float64
	late  float64 // dispatcher lateness p99, ms
	shed  int     // 429 responses
	bad   int     // other failures and wrong results
}

// serveRun is one serving workload run.
type serveRun struct {
	cfg    config
	name   string
	spec   serveSpec
	rep    *report
	rng    *rand.Rand
	golden map[string]string
	srv    *server
	next   func(n int) []*input
	cold   *coldGen // serve-cold's program source
	seq    int      // request counter for X-Request-ID
	checks time.Duration
}

// runServe runs a serving workload: set-up, the three fixed-rate steps,
// the capacity step, then the search for the highest rate that meets the
// latency limit. A traced run runs the steps traced() lists instead.
func runServe(cfg config, name string, rep *report) error {
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	r := &serveRun{
		cfg:    cfg,
		name:   name,
		spec:   serveSpecs[name],
		rep:    rep,
		rng:    rand.New(rand.NewSource(cfg.seed)),
		golden: golden,
	}
	if err := r.setup(); err != nil {
		return err
	}
	defer func() {
		if err := r.srv.stop(); err != nil {
			fmt.Fprintf(cfg.log, "# stopping the server: %v\n", err)
		}
	}()
	if cfg.trace {
		return r.traced()
	}
	return r.untraced()
}

// setup brings the server up setupReps times (once when traced), each
// time from scratch, and keeps the last one. serve-hot is ready when
// every pool entry is cached; serve-cold when its store is open and
// coldWarmup requests have completed.
func (r *serveRun) setup() error {
	var prime []*input
	if r.name == "serve-hot" {
		pool := hotPool(r.cfg.toy)
		prime = pool
		zipf := rand.NewZipf(r.rng, 1.1, 1, uint64(len(pool)-1))
		r.next = func(n int) []*input {
			out := make([]*input, n)
			for i := range out {
				out[i] = pool[zipf.Uint64()]
			}
			return out
		}
	} else {
		seen := map[[32]byte]bool{}
		// Warm-up programs come from seeds the timed phase never uses;
		// the shared seen-set keeps the two sets disjoint even for shapes
		// whose sources repeat across seeds.
		warmup := coldWarmup
		if r.cfg.toy {
			warmup = 5
		}
		prime = newColdGen(seen, r.cfg.seed*1_000_000+900_000).take(warmup)
		r.cold = newColdGen(seen, r.cfg.seed*1_000_000)
		r.next = r.cold.take
	}
	reps := setupReps
	if r.cfg.trace || r.cfg.toy {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		dir := ""
		if r.name == "serve-cold" {
			var err error
			if dir, err = os.MkdirTemp(r.cfg.workDir, "store-"); err != nil {
				return err
			}
		}
		t0 := time.Now()
		srv, err := startServer(dir, r.cfg.trace)
		if err != nil {
			return err
		}
		bodies := newBodyStore()
		for _, in := range prime {
			c := &call{in: in, reqID: fmt.Sprintf("setup-%d", r.seq)}
			r.seq++
			srv.send(c, bodies)
			if c.err != nil || c.status != http.StatusOK {
				_ = srv.stop() // the failed request is the error to report
				return fmt.Errorf("set-up request %s: status %d, %v", in.path, c.status, c.err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if r.name == "serve-hot" {
			// The primed responses are the ones every timed hit returns.
			for k, body := range bodies.m {
				if chk := r.check(k.in, body); !chk.ok {
					_ = srv.stop()
					return fmt.Errorf("set-up response: %s", chk.problem)
				}
			}
		}
		if i < reps-1 {
			if err := srv.stop(); err != nil {
				return err
			}
			continue
		}
		r.srv = srv
	}
	r.rep.set("setup_s", "s", median(times), len(times))
	return nil
}

// share returns pct % of the run's measuring time. A run spends 15, 30
// and 15 % on the low, reference and high steps, 20 % on the closed-loop
// capacity step, and 5 % on each of at most maxSearch search steps.
func (r *serveRun) share(pct int) time.Duration { return r.cfg.duration() * time.Duration(pct) / 100 }

const maxSearch = 4

// untraced runs the fixed-rate steps, the capacity step and the search,
// and reports the end-to-end metrics and the timings.
func (r *serveRun) untraced() error {
	spec := r.spec
	before := r.srv.svc.Stats()
	low := r.step("low", spec.rates[0], r.share(15), true)
	ref := r.step("reference", spec.rates[1], r.share(30), true)
	high := r.step("high", spec.rates[2], r.share(15), true)
	// Peak memory is read before the capacity and search steps: the
	// client keeps every request it sends until the step is checked, and
	// how many those steps send depends on how fast the server is.
	rss := peakRSSMB()
	capacity := r.capacity(r.share(20))
	r.assertCache(before, r.srv.svc.Stats())
	// A dispatcher that wakes late bunches arrivals: past half the latency
	// limit the generator, not the server, shapes the numbers.
	if maxLate := ms(spec.limit) / 2; ref.late > maxLate {
		return fmt.Errorf("%w: dispatcher lateness p99 %.3f ms at the reference rate exceeds %.3f ms",
			errInvalid, ref.late, maxLate)
	}
	best := r.search(high)

	r.rep.set("latency_p50_ms", "ms", ref.p50, len(ref.calls))
	r.rep.set("latency_p99_ms", "ms", ref.p99, len(ref.calls))
	r.rep.set("latency_p50_ms.low", "ms", low.p50, len(low.calls))
	r.rep.set("latency_p99_ms.high", "ms", high.p99, len(high.calls))
	r.rep.set("max_rps_at_slo", "1/s", best, 0)
	r.rep.set("throughput_per_s", "1/s", capacity, 0)
	r.rep.set("client.late_ms_p99", "ms", ref.late, len(ref.calls))
	r.rep.set("peak_rss_mb", "MB", rss, 0)
	r.rep.set("failed_share", "ratio", float64(r.rep.failed)/float64(max(r.rep.attempted, 1)), r.rep.attempted)
	r.rep.set("bench.check_s", "s", r.checks.Seconds(), 0)
	if r.cold != nil {
		r.rep.note("generated %d programs, skipped %d duplicate sources", r.cold.next-int64(r.cold.dups), r.cold.dups)
	}
	return nil
}

// assertCache checks that the workload exercised the cache as designed:
// every serve-hot request a hit, every serve-cold request a miss.
func (r *serveRun) assertCache(before, after service.Stats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if r.name == "serve-hot" && misses != 0 {
		r.rep.fail("serve-hot: %d cache misses in the timed steps (want all hits)", misses)
	}
	if r.name == "serve-cold" && hits != 0 {
		r.rep.fail("serve-cold: %d cache hits in the timed steps (want all misses)", hits)
	}
}

// search climbs from the high rate by ×1.25 until a step fails, then by
// ×1.05 from the last passing rate, within maxSearch steps, and returns
// the highest passing rate. When the high step itself failed it descends
// by ×0.8 until a step passes.
func (r *serveRun) search(high stepResult) float64 {
	steps := 0
	try := func(rate float64) bool {
		steps++
		return r.step(fmt.Sprintf("search-%d", steps), rate, r.share(5), false).pass
	}
	limit := maxSearch
	if r.cfg.toy {
		limit = 1
	}
	if !high.pass {
		rate := high.rate
		for steps < limit {
			rate *= 0.8
			if try(rate) {
				return rate
			}
		}
		return rate
	}
	best := high.rate
	for _, factor := range []float64{1.25, 1.05} {
		rate := best
		for steps < limit {
			rate *= factor
			if !try(rate) {
				break
			}
			best = rate
		}
	}
	return best
}

// newCalls builds n requests from the workload's inputs.
func (r *serveRun) newCalls(n int) []*call {
	calls := make([]*call, n)
	for i, in := range r.next(n) {
		calls[i] = &call{in: in, reqID: fmt.Sprintf("%s-%d", r.name, r.seq)}
		r.seq++
	}
	return calls
}

// step runs one open-loop step: Poisson arrivals at rate for dur, each
// request timed from when it was due. Requests queue in the client while
// both connections are busy. The step passes when p99 latency meets the
// limit, nothing failed, and every request completed within drainGrace
// after the last arrival was due. counted steps add their failures to
// the run's failures; search steps count only wrong results, since
// shedding under deliberate overload is the service's declared answer.
func (r *serveRun) step(name string, rate float64, dur time.Duration, counted bool) stepResult {
	var offsets []time.Duration
	for t := r.rng.ExpFloat64() / rate; t < dur.Seconds(); t += r.rng.ExpFloat64() / rate {
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	calls := r.newCalls(len(offsets))
	bodies := newBodyStore()
	// The queue holds every call of the step, so the dispatcher never
	// blocks on a busy sender.
	queue := make(chan *call, len(calls))
	var wg sync.WaitGroup
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range queue {
				r.srv.send(c, bodies)
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for i, c := range calls {
		c.due = start.Add(offsets[i])
		sleepUntil(c.due)
		c.handoff = time.Now()
		queue <- c
	}
	close(queue)
	wg.Wait()
	st := r.finish(name, rate, calls, bodies, counted)
	if deadline := start.Add(dur + drainGrace); st.pass {
		for _, c := range calls {
			if c.done.After(deadline) {
				st.pass, st.why = false, "backlog"
				break
			}
		}
	}
	r.logStep(st)
	return st
}

// capacity runs the closed-loop step: each connection sends its next
// request as soon as the previous one completes, for dur. It returns the
// completed requests per second.
func (r *serveRun) capacity(dur time.Duration) float64 {
	// Enough inputs for three times the high rate; the loop stops early
	// if they run out.
	calls := r.newCalls(int(3*r.spec.rates[2]*dur.Seconds()) + clientConns)
	bodies := newBodyStore()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k := next.Add(1) - 1
				if k >= int64(len(calls)) {
					return
				}
				c := calls[k]
				c.due = time.Now()
				c.handoff = c.due
				r.srv.send(c, bodies)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sent := calls[:min(next.Load(), int64(len(calls)))]
	st := r.finish("capacity", 0, sent, bodies, true)
	st.rate = float64(len(sent)) / elapsed.Seconds()
	r.logStep(st)
	return st.rate
}

// finish checks a step's responses and summarizes its latencies.
func (r *serveRun) finish(name string, rate float64, calls []*call, bodies *bodyStore, counted bool) stepResult {
	st := stepResult{name: name, rate: rate, calls: calls, pass: true}
	t0 := time.Now()
	results := map[bodyKey]*checked{}
	for k, body := range bodies.m {
		results[k] = r.check(k.in, body)
	}
	r.checks += time.Since(t0)
	var lat, late []float64
	for _, c := range calls {
		lat = append(lat, c.latency())
		late = append(late, ms(c.handoff.Sub(c.due)))
		switch {
		case c.err != nil:
			st.bad++
			r.failIf(counted, "%s %s: %v", name, c.reqID, c.err)
		case c.status == http.StatusTooManyRequests:
			st.shed++
			r.failIf(counted, "%s %s: shed with status 429", name, c.reqID)
		case c.status != http.StatusOK:
			st.bad++
			r.failIf(counted, "%s %s: status %d", name, c.reqID, c.status)
		default:
			c.info = results[bodyKey{c.in, c.sum}]
			if !c.info.ok {
				st.bad++
				r.rep.fail("%s %s: %s", name, c.reqID, c.info.problem)
			}
		}
	}
	r.rep.attempted += len(calls)
	st.p50, st.p99, st.late = percentile(lat, 50), percentile(lat, 99), percentile(late, 99)
	st.tail = supportedTail(len(lat))
	st.pTail = percentile(lat, st.tail)
	switch {
	case st.bad+st.shed > 0:
		st.pass, st.why = false, fmt.Sprintf("%d failed, %d shed", st.bad, st.shed)
	case st.p99 > ms(r.spec.limit):
		st.pass, st.why = false, fmt.Sprintf("p99 %.3f ms over the limit", st.p99)
	}
	return st
}

func (r *serveRun) logStep(st stepResult) {
	verdict := "pass"
	if !st.pass {
		verdict = "fail (" + st.why + ")"
	}
	fmt.Fprintf(r.cfg.log, "# %s step %-16s rate %7.1f/s n=%-6d p50 %7.3f ms p99 %7.3f ms p%g %7.3f ms late_p99 %6.3f ms %s\n",
		r.name, st.name, st.rate, len(st.calls), st.p50, st.p99, st.tail, st.pTail, st.late, verdict)
}

func (r *serveRun) failIf(counted bool, format string, args ...any) {
	if counted {
		r.rep.fail(format, args...)
	}
}

// check decodes one response and compares its result with a reference:
// the golden hash for serve-hot; for serve-cold, the BDD analyzer's
// success formulas (groundness) or an in-process strictness run of the
// same source. The serve-cold reference for strictness is the same
// analyzer, so it catches corruption on the service, store and HTTP
// path, not analyzer bugs.
func (r *serveRun) check(in *input, body []byte) *checked {
	c := &checked{}
	if err := json.Unmarshal(body, &c.resp); err != nil {
		c.problem = fmt.Sprintf("undecodable response: %v", err)
		return c
	}
	if c.resp.Kind != in.kind {
		c.problem = fmt.Sprintf("response kind %q, want %q", c.resp.Kind, in.kind)
		return c
	}
	switch {
	case in.golden != "":
		if canonicalHash(&c.resp) != r.golden[in.golden] {
			c.problem = in.golden + ": result differs from the golden hash"
			return c
		}
	case in.kind == service.KindGroundness:
		want, err := bddSuccess(in.src)
		if err != nil {
			c.problem = fmt.Sprintf("bddprop reference: %v", err)
			return c
		}
		for _, p := range c.resp.Predicates {
			if w, ok := want[p.Indicator]; ok && w != p.Success {
				c.problem = fmt.Sprintf("%s: success %s, bddprop says %s", p.Indicator, p.Success, w)
				return c
			}
		}
	default:
		a, err := strict.Analyze(in.src, strict.Options{})
		if err != nil {
			c.problem = fmt.Sprintf("strictness reference: %v", err)
			return c
		}
		if canonicalHash(service.FromStrictness(a)) != canonicalHash(&c.resp) {
			c.problem = "strictness result differs from an in-process run"
			return c
		}
	}
	c.ok = true
	return c
}

// bddSuccess computes each predicate's success formula with the BDD-based
// analyzer, an implementation independent of the tabled one, rendered
// the way groundness responses render theirs. (GAIA, the other
// independent analyzer, takes exponential time on a few generated
// programs with nested disjunctions.)
func bddSuccess(src string) (map[string]string, error) {
	a, err := bddprop.Analyze(src)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for ind, r := range a.Results {
		f := boolfn.New(r.Arity)
		for row := uint(0); row < 1<<uint(r.Arity); row++ {
			if a.Manager.Eval(r.Success, row) {
				f.SetRow(row)
			}
		}
		out[ind] = f.Format(argNames(r.Arity))
	}
	return out, nil
}

// traced runs the reference step and the capacity step untraced, which
// give the user-facing timings, then the reference and high steps
// traced, which give the per-layer metrics.
func (r *serveRun) traced() error {
	plain := r.step("reference", r.spec.rates[1], r.share(30), true)
	capacity := r.capacity(r.share(20))
	r.srv.spans.on.Store(true)
	before := r.srv.svc.Stats()
	mem0 := memSnapshot()
	ref := r.step("reference-traced", r.spec.rates[1], r.share(30), true)
	high := r.step("high-traced", r.spec.rates[2], r.share(15), true)
	mem := readMemDelta(&mem0)
	after := r.srv.svc.Stats()
	r.srv.spans.on.Store(false)
	r.assertCache(before, after)
	handlers := r.srv.spans.take()

	tr := newTracer()
	var handler, overhead, httpUs, connWait, size []float64
	var sums engineSums
	var executed int
	var preproc, solve, collect float64
	calls := append(append([]*call(nil), ref.calls...), high.calls...)
	for _, c := range calls {
		rid := tr.add("request", 0, c.reqID, c.due, c.done)
		tr.add("conn_wait", rid, c.reqID, c.due, c.sent)
		hid := tr.add("http", rid, c.reqID, c.sent, c.done)
		connWait = append(connWait, ms(c.sent.Sub(c.due)))
		size = append(size, float64(c.size)/1024)
		h, ok := handlers[c.reqID]
		if !ok {
			continue
		}
		hs := tr.add("handler", hid, c.reqID, h[0], h[1])
		hdur := h[1].Sub(h[0])
		handler = append(handler, float64(hdur.Microseconds()))
		httpUs = append(httpUs, float64((c.done.Sub(c.sent) - hdur).Microseconds()))
		var analysis time.Duration
		if c.info != nil && !c.info.resp.Cached {
			t := c.info.resp.Timings
			analysis = time.Duration(t.TotalUs) * time.Microsecond
			// The response gives the phase lengths, not their position;
			// they are placed at the end of the handler span.
			a0 := h[1].Add(-analysis)
			aid := tr.add("analysis", hs, c.reqID, a0, h[1])
			p1 := a0.Add(time.Duration(t.PreprocUs) * time.Microsecond)
			p2 := p1.Add(time.Duration(t.AnalysisUs) * time.Microsecond)
			tr.add("analysis.preproc", aid, c.reqID, a0, p1)
			tr.add("engine.solve", aid, c.reqID, p1, p2)
			tr.add("analysis.collect", aid, c.reqID, p2, p2.Add(time.Duration(t.CollectionUs)*time.Microsecond))
			executed++
			preproc += float64(t.PreprocUs) / 1000
			solve += float64(t.AnalysisUs) / 1000
			collect += float64(t.CollectionUs) / 1000
			if c.info.resp.Engine != nil {
				sums.add(*c.info.resp.Engine)
			}
		}
		overhead = append(overhead, float64((hdur - analysis).Microseconds()))
	}
	rep := r.rep
	n := len(calls)
	rep.set("service.handler_us_p50", "us", percentile(handler, 50), len(handler))
	rep.set("service.handler_us_p99", "us", percentile(handler, 99), len(handler))
	rep.set("service.overhead_us_p50", "us", percentile(overhead, 50), len(overhead))
	rep.set("service.http_us_p50", "us", percentile(httpUs, 50), len(httpUs))
	rep.set("service.response_kb_mean", "KiB", mean(size), n)
	rep.set("service.conn_wait_ms_p99", "ms", percentile(connWait, 99), n)
	rep.set("service.peak_queue_depth", "count", float64(after.PeakQueueDepth), 0)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.set("service.cache_hit_ratio", "ratio", ratio, int(hits+misses))
	if after.Store != nil && before.Store != nil {
		rep.set("store.puts", "count", float64(after.Store.Writes-before.Store.Writes), 0)
		rep.set("store.hits", "count", float64(after.Store.Hits-before.Store.Hits), 0)
		rep.set("store.misses", "count", float64(after.Store.Misses-before.Store.Misses), 0)
	}
	per := float64(max(executed, 1))
	rep.set("analysis.preproc_ms", "ms", preproc/per, executed)
	rep.set("engine.solve_ms", "ms", solve/per, executed)
	rep.set("analysis.collect_ms", "ms", collect/per, executed)
	sums.report(rep, executed)
	mem.report(rep, n)
	rep.set("client.late_ms_p99", "ms", ref.late, len(ref.calls))
	rep.set("trace.overhead_pct", "%", 100*(ref.p50/plain.p50-1), len(ref.calls))
	rep.set("latency_p50_ms", "ms", plain.p50, len(plain.calls))
	rep.set("latency_p99_ms", "ms", plain.p99, len(plain.calls))
	rep.set("throughput_per_s", "1/s", capacity, 0)
	spans := tr.all()
	printSelfTimes(r.cfg.log, spans)
	if r.cfg.traceOut != "" {
		if err := tr.write(r.cfg.traceOut); err != nil {
			fmt.Fprintf(r.cfg.log, "# writing %s: %v\n", r.cfg.traceOut, err)
		}
	}
	return nil
}
