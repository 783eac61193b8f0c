package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"sync"
	"testing"
	"time"

	"xlp/internal/bddprop"
	"xlp/internal/corpus"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/prop"
	"xlp/internal/service/store"
	"xlp/internal/strict"
	"xlp/internal/testutil"
)

// divergentSrc backtracks through 4^16 combinations at constant depth:
// effectively unbounded wall-clock without tripping any resource limit.
const divergentSrc = `
p(0). p(1). p(2). p(3).
slow :- p(A1),p(A2),p(A3),p(A4),p(A5),p(A6),p(A7),p(A8),
        p(B1),p(B2),p(B3),p(B4),p(B5),p(B6),p(B7),p(B8),
        A1 = A2, B1 = B2, fail.
`

// slowOKSrc succeeds (once) after ~4^10 backtracks: slow enough that
// concurrent identical requests overlap, fast enough to finish.
const slowOKSrc = `
p(0). p(1). p(2). p(3).
q :- p(A),p(B),p(C),p(D),p(E),p(F),p(G),p(H),p(I),p(J), fail.
q.
`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// normalize strips the per-run volatile fields so responses from
// different runs of the same request compare equal.
func normalize(r *Response) *Response {
	cp := r.shallowCopy()
	cp.Cached, cp.Stored, cp.Deduped = false, false, false
	cp.Timings = Timings{}
	// Engine counters are cost metrics, not results: evaluation order
	// (map iteration) legitimately varies them between runs.
	cp.Engine = nil
	return cp
}

// directResponse computes the expected response for req without the
// service, via the same wire-form builders.
func directResponse(t *testing.T, req *Request) *Response {
	t.Helper()
	resp, err := execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("direct %s: %v", req.Kind, err)
	}
	return resp
}

// mixedCorpusRequests builds a request per analyzer over corpus
// programs, plus a raw query.
func mixedCorpusRequests(t *testing.T) []*Request {
	t.Helper()
	var reqs []*Request
	logic := []string{"qsort", "queens", "pg"}
	for _, name := range logic {
		p, err := corpus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs,
			&Request{Kind: KindGroundness, Source: p.Source},
			&Request{Kind: KindGAIA, Source: p.Source},
			&Request{Kind: KindBDD, Source: p.Source},
			&Request{Kind: KindDepthK, Source: p.Source, Options: Options{K: 1}},
		)
	}
	for _, name := range []string{"quicksort", "mergesort"} {
		p, err := corpus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, &Request{Kind: KindStrictness, Source: p.Source})
	}
	reqs = append(reqs, &Request{
		Kind:    KindQuery,
		Source:  ":- table path/2.\nedge(a,b). edge(b,c). edge(c,a).\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).",
		Options: Options{Goal: "path(a, X)"},
	})
	return reqs
}

// TestTorture pushes 32 goroutines of mixed corpus analyses through the
// pool and asserts every response equals the direct Analyze* result.
// Run under -race.
func TestTorture(t *testing.T) {
	reqs := mixedCorpusRequests(t)
	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		want[i] = normalize(directResponse(t, req))
	}

	s := newTestService(t, Config{Workers: 8, QueueSize: 1024, CacheSize: 8})
	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(reqs); i++ {
				// Stagger start points so goroutines hit different
				// requests concurrently.
				idx := (g + i) % len(reqs)
				resp, err := s.Do(context.Background(), reqs[idx])
				if err != nil {
					errs <- fmt.Errorf("g%d req%d (%s): %v", g, idx, reqs[idx].Kind, err)
					return
				}
				if got := normalize(resp); !reflect.DeepEqual(got, want[idx]) {
					errs <- fmt.Errorf("g%d req%d (%s): response differs from direct analysis\n got: %+v\nwant: %+v",
						g, idx, reqs[idx].Kind, got, want[idx])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Requests != goroutines*uint64(len(reqs)) {
		t.Errorf("requests counter: got %d, want %d", st.Requests, goroutines*len(reqs))
	}
	if st.Hits+st.Misses+st.Deduped != st.Requests {
		t.Errorf("counters leak: hits %d + misses %d + deduped %d != requests %d",
			st.Hits, st.Misses, st.Deduped, st.Requests)
	}
}

// TestDeadline checks the acceptance criterion: a 50ms deadline against
// a divergent program returns ErrDeadline within ~2x the deadline, and
// shutdown leaves no goroutines behind.
func TestDeadline(t *testing.T) {
	before := testutil.Goroutines()
	s := New(Config{Workers: 2, QueueSize: 8})

	start := time.Now()
	_, err := s.Do(context.Background(), &Request{
		Kind:      KindQuery,
		Source:    divergentSrc,
		Options:   Options{Goal: "slow"},
		TimeoutMs: 50,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, engine.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	// ~2x the deadline; the margin absorbs scheduler noise on loaded
	// CI machines without weakening the point (the engine polls its
	// context every few hundred resolution steps).
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline enforcement took %v, want about 100ms", elapsed)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The worker that ran the divergent program also stops: Do's
	// deferred cancel fires when Do returns, and the engine aborts at
	// its next context poll. The leak helper polls until the labeled
	// goroutine profile settles back to the before snapshot.
	testutil.AssertNoLeaks(t, before)
}

// TestWarmCache checks the acceptance criterion: a repeat of an
// identical request is served from the cache at least 50x faster than
// the cold run and increments the hit counter.
func TestWarmCache(t *testing.T) {
	p, err := corpus.Get("read")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 2})
	req := &Request{Kind: KindGroundness, Source: p.Source}

	t0 := time.Now()
	cold, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	coldD := time.Since(t0)
	if cold.Cached {
		t.Fatal("cold response marked cached")
	}

	// Take the fastest of a few warm reads so one scheduler hiccup
	// cannot mask the cache speedup.
	var warm *Response
	warmD := time.Hour
	for i := 0; i < 5; i++ {
		t1 := time.Now()
		warm, err = s.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t1); d < warmD {
			warmD = d
		}
	}
	if !warm.Cached {
		t.Fatal("warm response not marked cached")
	}
	if !reflect.DeepEqual(normalize(warm), normalize(cold)) {
		t.Error("warm response differs from cold")
	}
	if st := s.Stats(); st.Hits != 5 || st.Misses != 1 || st.Executed != 1 {
		t.Errorf("counters: hits %d misses %d executed %d, want 5/1/1",
			st.Hits, st.Misses, st.Executed)
	}
	if coldD < 50*warmD {
		t.Errorf("warm not >=50x faster: cold %v, warm %v (%.0fx)",
			coldD, warmD, float64(coldD)/float64(warmD))
	}
}

// TestSingleFlight fires identical concurrent requests and asserts the
// analysis ran exactly once (the dedup acceptance criterion).
func TestSingleFlight(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueSize: 64})
	req := &Request{Kind: KindQuery, Source: slowOKSrc, Options: Options{Goal: "q"}}

	const concurrent = 8
	var wg sync.WaitGroup
	responses := make([]*Response, concurrent)
	errs := make([]error, concurrent)
	start := make(chan struct{})
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i], errs[i] = s.Do(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < concurrent; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got, want := responses[i].Solutions, []string{"q"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d solutions: got %v, want %v", i, got, want)
		}
	}
	st := s.Stats()
	if st.Executed != 1 {
		t.Errorf("executed %d analyses, want exactly 1 (single-flight)", st.Executed)
	}
	if st.Misses != 1 {
		t.Errorf("misses %d, want 1", st.Misses)
	}
	if st.Hits+st.Deduped != concurrent-1 {
		t.Errorf("hits %d + deduped %d, want %d", st.Hits, st.Deduped, concurrent-1)
	}
}

// TestSingleFlightJoinerOutlivesLeaderCancel: the shared run belongs to
// the first requester's context, so when that requester cancels, a
// joiner whose own context is live must not inherit the cancel. It
// re-runs instead. Log lines and counters order the steps: no sleeps.
func TestSingleFlightJoinerOutlivesLeaderCancel(t *testing.T) {
	joined := &logBarrier{msg: "joined in-flight computation", hit: make(chan struct{}, 1)}
	s := newTestService(t, Config{Workers: 1, QueueSize: 4, Logger: slog.New(joined)})

	// Occupy the only worker, so the shared request waits in the queue.
	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Do(blockCtx, &Request{Kind: KindQuery, Source: divergentSrc, Options: Options{Goal: "slow"}})
		blocked <- err
	}()
	awaitStats(t, s, func(st Stats) bool { return st.InFlight == 1 }, "one running request")

	req := &Request{Kind: KindQuery, Source: "q(1). q(2).", Options: Options{Goal: "q(X)"}}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	led := make(chan error, 1)
	go func() {
		_, err := s.Do(leaderCtx, req)
		led <- err
	}()
	awaitStats(t, s, func(st Stats) bool { return st.Misses == 2 }, "a queued leader")
	type result struct {
		resp *Response
		err  error
	}
	joiner := make(chan result, 1)
	go func() {
		resp, err := s.Do(context.Background(), req)
		joiner <- result{resp, err}
	}()
	<-joined.hit

	cancelLeader()
	if err := <-led; !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("leader: want ErrCanceled, got %v", err)
	}
	// The worker now dequeues the leader's job, whose context has ended.
	unblock()
	if err := <-blocked; !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("blocker: want ErrCanceled, got %v", err)
	}
	r := <-joiner
	if r.err != nil {
		t.Fatalf("joiner inherited the leader's cancel: %v", r.err)
	}
	if want := []string{"q(1)", "q(2)"}; !reflect.DeepEqual(r.resp.Solutions, want) {
		t.Fatalf("joiner solutions %v, want %v", r.resp.Solutions, want)
	}
	st := s.Stats()
	if st.Hits+st.Misses+st.Deduped != st.Requests {
		t.Errorf("hits %d + misses %d + deduped %d != requests %d",
			st.Hits, st.Misses, st.Deduped, st.Requests)
	}
	if _, ok := s.cache.Get(req.CacheKey()); !ok {
		t.Error("the joiner's own run was not cached")
	}
}

// logBarrier is a slog handler that signals hit once per record whose
// message is msg, so a test can wait until a request reaches that point.
type logBarrier struct {
	msg string
	hit chan struct{}
}

func (b *logBarrier) Enabled(context.Context, slog.Level) bool { return true }
func (b *logBarrier) WithAttrs([]slog.Attr) slog.Handler       { return b }
func (b *logBarrier) WithGroup(string) slog.Handler            { return b }
func (b *logBarrier) Handle(_ context.Context, r slog.Record) error {
	if r.Message == b.msg {
		b.hit <- struct{}{}
	}
	return nil
}

// awaitStats polls the service counters until cond holds.
func awaitStats(t *testing.T, s *Service, cond func(Stats) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("service never reached %s", what)
}

// TestQueueFull checks the bounded queue fails fast when saturated.
func TestQueueFull(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueSize: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	unique := func(i int) *Request {
		// Distinct sources: distinct cache keys, so no dedup. The long
		// deadline keeps the pool saturated until the test cancels ctx;
		// the occupying requests never run to it.
		return &Request{
			Kind:      KindQuery,
			Source:    fmt.Sprintf("%s\nmark(%d).", divergentSrc, i),
			Options:   Options{Goal: "slow"},
			TimeoutMs: 10000,
		}
	}
	var wg sync.WaitGroup
	// Occupy the worker, then the one queue slot — strictly in that
	// order. Submitting both concurrently races the second request
	// against the worker's dequeue of the first: if it loses, it bounces
	// off the still-full queue and the pool never saturates.
	occupy := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(ctx, unique(i)) //nolint:errcheck // canceled by the test
		}()
	}
	occupy(0)
	awaitStats(t, s, func(st Stats) bool { return st.InFlight == 1 && st.QueueDepth == 0 }, "one running request")
	occupy(1)
	awaitStats(t, s, func(st Stats) bool { return st.InFlight == 1 && st.QueueDepth == 1 }, "one running + one queued request")
	_, err := s.Do(context.Background(), unique(2))
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("want ErrQueueFull, got %v", err)
	}
	cancel()
	wg.Wait()
}

// TestShutdownDrain checks Shutdown completes queued work and rejects
// new requests.
func TestShutdownDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	req := &Request{Kind: KindQuery, Source: "a(1).", Options: Options{Goal: "a(X)"}}
	if _, err := s.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := s.Do(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed after shutdown, got %v", err)
	}
	if err := s.Shutdown(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("second shutdown: want ErrClosed, got %v", err)
	}
}

// TestValidation covers the request validation errors.
func TestValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	for _, tc := range []struct {
		name string
		req  *Request
	}{
		{"unknown kind", &Request{Kind: "nope", Source: "a."}},
		{"empty source", &Request{Kind: KindGroundness}},
		{"query without goal", &Request{Kind: KindQuery, Source: "a."}},
		{"bad mode", &Request{Kind: KindGroundness, Source: "a.", Options: Options{Mode: "jit"}}},
		{"negative timeout", &Request{Kind: KindGroundness, Source: "a.", TimeoutMs: -1}},
		{"stringmap tables", &Request{Kind: KindGroundness, Source: "a.", Options: Options{Tables: "stringmap"}}},
		{"negative max_depth", &Request{Kind: KindGroundness, Source: "a.", Options: Options{MaxDepth: -1}}},
		{"negative max_answers", &Request{Kind: KindGroundness, Source: "a.", Options: Options{MaxAnswers: -1}}},
		{"negative max_subgoals", &Request{Kind: KindGroundness, Source: "a.", Options: Options{MaxSubgoals: -1}}},
	} {
		if _, err := s.Do(context.Background(), tc.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: want ErrBadRequest, got %v", tc.name, err)
		}
	}
}

// TestCacheKeyCanonicalization: requests differing only in defaulted or
// kind-irrelevant options share one content address.
func TestCacheKeyCanonicalization(t *testing.T) {
	base := &Request{Kind: KindGroundness, Source: "a(1)."}
	same := []*Request{
		{Kind: KindGroundness, Source: "a(1).", Options: Options{Mode: "dynamic"}},
		{Kind: KindGroundness, Source: "a(1).", Options: Options{K: 3, Goal: "zz"}},
		{Kind: KindGroundness, Source: "a(1).", Options: Options{Tables: "trie"}},
	}
	for i, r := range same {
		if r.CacheKey() != base.CacheKey() {
			t.Errorf("variant %d: key differs from base", i)
		}
	}
	diff := []*Request{
		{Kind: KindGAIA, Source: "a(1)."},
		{Kind: KindGroundness, Source: "a(2)."},
		{Kind: KindGroundness, Source: "a(1).", Options: Options{Mode: "closure"}},
		{Kind: KindGroundness, Source: "a(1).", Options: Options{Entry: []string{"a(X)"}}},
	}
	for i, r := range diff {
		if r.CacheKey() == base.CacheKey() {
			t.Errorf("variant %d: key should differ from base", i)
		}
	}
	// depthk: K=0 canonicalizes to the default K=2.
	k0 := &Request{Kind: KindDepthK, Source: "a(1)."}
	k2 := &Request{Kind: KindDepthK, Source: "a(1).", Options: Options{K: 2}}
	if k0.CacheKey() != k2.CacheKey() {
		t.Error("depthk K=0 and K=2 should share a key")
	}
	// depthk has one tabling mode, so no_supplementary cannot split it.
	nosupp := &Request{Kind: KindDepthK, Source: "a(1).", Options: Options{NoSupplementary: true}}
	if nosupp.CacheKey() != k0.CacheKey() {
		t.Error("depthk no_supplementary should share the default key")
	}
}

// TestCacheKeysStable pins the content addresses of default groundness,
// strictness and depth-k requests and of a closure-mode request. The
// disk store is keyed by them, so a change to Options or to its
// canonicalization that moves a key orphans every stored result.
func TestCacheKeysStable(t *testing.T) {
	const logic = "ap([], L, L).\nap([H|T], L, [H|R]) :- ap(T, L, R).\n"
	const fn = "ap(nil, Ys) = Ys.\nap(cons(X, Xs), Ys) = cons(X, ap(Xs, Ys)).\n"
	for _, tc := range []struct {
		req  *Request
		want string
	}{
		{&Request{Kind: KindGroundness, Source: logic}, "0e781d064fe6fd39a688d0b3bd95783d80880ed11732838782ffc7e2691ce876"},
		{&Request{Kind: KindStrictness, Source: fn}, "4366e6a6ed7e5155214e6a2e39fd2bc7c57113addefea9536141f5ce14636650"},
		{&Request{Kind: KindDepthK, Source: logic}, "48dd6e03da510110a0fcc3fb6cca3394eede0c63059a24219283b2a2029186bd"},
		{&Request{Kind: KindGroundness, Source: logic, Options: Options{Mode: "closure"}}, "1b1ac16230dc00ab6d53a9b7e21fad6ac587024c1a1d323a76498dd031b9b4af"},
	} {
		if got := tc.req.CacheKey(); got != tc.want {
			t.Errorf("%s mode %q: key %s, want %s", tc.req.Kind, tc.req.Options.Mode, got, tc.want)
		}
	}
}

// TestLRUEviction checks the cache respects its capacity bound.
func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	r := &Response{Kind: KindQuery}
	c.Add("a", r)
	c.Add("b", r)
	c.Add("c", r) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b should be cached")
	}
	c.Add("d", r) // evicts c (b was just used)
	if _, ok := c.Get("c"); ok {
		t.Error("c should have been evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

// TestCanceledContext: an already-canceled caller context fails with
// ErrCanceled without running the analysis.
func TestCanceledContext(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Do(ctx, &Request{Kind: KindQuery, Source: divergentSrc, Options: Options{Goal: "slow"}})
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestAnalyzerCtxVariants exercises every analyzer's context plumbing
// with an expired deadline.
func TestAnalyzerCtxVariants(t *testing.T) {
	p, err := corpus.Get("kalah")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := prop.Analyze(p.Source, prop.Options{Ctx: ctx}); !errors.Is(err, engine.ErrDeadline) {
		t.Errorf("prop: want ErrDeadline, got %v", err)
	}
	if _, err := strict.Analyze(mustSrc(t, "quicksort"), strict.Options{Ctx: ctx}); !errors.Is(err, engine.ErrDeadline) {
		t.Errorf("strict: want ErrDeadline, got %v", err)
	}
	if _, err := depthk.Analyze(p.Source, depthk.Options{Ctx: ctx}); !errors.Is(err, engine.ErrDeadline) {
		t.Errorf("depthk: want ErrDeadline, got %v", err)
	}
	if _, err := gaia.AnalyzeCtx(ctx, p.Source); !errors.Is(err, engine.ErrDeadline) {
		t.Errorf("gaia: want ErrDeadline, got %v", err)
	}
	if _, err := bddprop.AnalyzeCtx(ctx, p.Source); !errors.Is(err, engine.ErrDeadline) {
		t.Errorf("bddprop: want ErrDeadline, got %v", err)
	}
}

func mustSrc(t *testing.T, name string) string {
	t.Helper()
	p, err := corpus.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Source
}

// TestStoreWarmRestart checks the durable-store acceptance criterion at
// the service level: a result computed by one service instance is
// served warm — without re-execution — by a fresh instance opened on
// the same store directory, and the payload survives the round trip.
func TestStoreWarmRestart(t *testing.T) {
	cfg := Config{Workers: 2, StoreDir: t.TempDir()}
	req := &Request{Kind: KindGroundness, Source: mustSrc(t, "qsort")}

	s1 := New(cfg)
	cold, err := s1.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || cold.Stored {
		t.Fatalf("cold run flagged cached=%v stored=%v", cold.Cached, cold.Stored)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Simulated restart: a new process on the same directory.
	s2 := newTestService(t, cfg)
	warm, err := s2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stored || !warm.Cached {
		t.Errorf("warm restart response flagged cached=%v stored=%v, want true/true", warm.Cached, warm.Stored)
	}
	if !reflect.DeepEqual(normalize(warm), normalize(cold)) {
		t.Error("store-served response differs from the original computation")
	}
	st := s2.Stats()
	if st.Executed != 0 || st.Hits != 1 {
		t.Errorf("restarted service recomputed: executed %d, hits %d", st.Executed, st.Hits)
	}
	if st.Store == nil || st.Store.Hits != 1 || st.Store.Entries != 1 {
		t.Errorf("store stats: %+v", st.Store)
	}

	// The disk hit was promoted to the LRU: a repeat is a memory hit.
	again, err := s2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat after promotion not served from the memory cache")
	}
	if got := s2.Stats().Store.Hits; got != 1 {
		t.Errorf("repeat went back to disk: store hits %d, want 1", got)
	}
}

// TestStoreCorruptPayloadIsMiss: a stored frame whose checksum holds but
// whose JSON no longer decodes as a Response (schema drift) is dropped
// and recomputed, never surfaced as an error.
func TestStoreCorruptPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, StoreDir: dir}
	req := &Request{Kind: KindQuery, Source: "a(1).", Options: Options{Goal: "a(X)"}}

	s1 := New(cfg)
	if _, err := s1.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the entry with a frame that is valid at the codec layer
	// but is not a Response object.
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(req.CacheKey(), []byte(`[1, 2, 3]`)); err != nil {
		t.Fatal(err)
	}

	s2 := newTestService(t, cfg)
	resp, err := s2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stored || resp.Cached {
		t.Errorf("undecodable payload served warm: cached=%v stored=%v", resp.Cached, resp.Stored)
	}
	stats := s2.Stats()
	if stats.Executed != 1 {
		t.Errorf("executed %d, want 1 (recompute)", stats.Executed)
	}
	if stats.Store.Corrupt == 0 {
		t.Error("corrupt counter not bumped for undecodable payload")
	}
}
