package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, QueueSize: 16})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPAnalyzeGroundness(t *testing.T) {
	_, srv := newTestServer(t)
	hr, body := post(t, srv.URL+"/v1/analyze/groundness", apiRequest{
		Source: "ap([], L, L).\nap([H|T], L, [H|R]) :- ap(T, L, R).",
	})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindGroundness || len(resp.Predicates) != 1 {
		t.Fatalf("unexpected response: %s", body)
	}
	p := resp.Predicates[0]
	if p.Indicator != "ap/3" || p.Success == "" {
		t.Errorf("bad predicate report: %+v", p)
	}
}

func TestHTTPQueryAndStats(t *testing.T) {
	_, srv := newTestServer(t)
	req := apiRequest{
		Source:  ":- table anc/2.\npar(a,b). par(b,c).\nanc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).",
		Options: Options{Goal: "anc(a, X)"},
	}
	hr, body := post(t, srv.URL+"/v1/query", req)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Solutions) != 2 {
		t.Fatalf("want 2 solutions, got %v", resp.Solutions)
	}

	// Identical repeat: served from cache, visible in /v1/stats.
	if _, body := post(t, srv.URL+"/v1/query", req); !strings.Contains(string(body), `"cached": true`) {
		t.Errorf("repeat not served from cache: %s", body)
	}
	sr, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st struct {
		Stats
		HitRate float64 `json:"hit_rate"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 || st.Executed != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", st.HitRate)
	}

	tr, err := http.Get(srv.URL + "/v1/stats?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	text, _ := io.ReadAll(tr.Body)
	if !strings.Contains(string(text), "Analysis service counters") {
		t.Errorf("text stats missing table: %s", text)
	}
}

func TestHTTPDeadline504(t *testing.T) {
	_, srv := newTestServer(t)
	hr, body := post(t, srv.URL+"/v1/query", apiRequest{
		Source:    divergentSrc,
		Options:   Options{Goal: "slow"},
		TimeoutMs: 50,
	})
	if hr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", hr.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("bad error body: %s", body)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t)
	for _, tc := range []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown kind", "/v1/analyze/typestate", apiRequest{Source: "a."}, http.StatusNotFound},
		{"query via analyze", "/v1/analyze/query", apiRequest{Source: "a."}, http.StatusNotFound},
		{"empty source", "/v1/analyze/groundness", apiRequest{}, http.StatusBadRequest},
		{"parse error", "/v1/analyze/groundness", apiRequest{Source: "a :- ."}, http.StatusUnprocessableEntity},
		{"gaia unknown entry", "/v1/analyze/gaia", apiRequest{Source: "a.", Options: Options{Entry: []string{"nosuch"}}}, http.StatusUnprocessableEntity},
		{"query without goal", "/v1/query", apiRequest{Source: "a."}, http.StatusBadRequest},
		{"unknown field", "/v1/query", map[string]any{"prog": "a."}, http.StatusBadRequest},
		// Options the service no longer has are rejected, not ignored.
		{"mode compiled", "/v1/analyze/groundness", apiRequest{Source: "a.", Options: Options{Mode: "compiled"}}, http.StatusBadRequest},
		{"options.parallel", "/v1/analyze/groundness",
			map[string]any{"source": "a.", "options": map[string]any{"parallel": 4}}, http.StatusBadRequest},
	} {
		hr, body := post(t, srv.URL+tc.path, tc.body)
		if hr.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, hr.StatusCode, tc.status, body)
		}
	}
}

// TestHTTPQueryClosureClauseStoreChange: a query goal that changes the
// clause store must see the change under the closure backend exactly as
// under the interpreter. Stale compiled code misses the asserted clause,
// and after the retract it indexes past the end of the clause list: a
// panic in a worker, which takes the whole server down.
func TestHTTPQueryClosureClauseStoreChange(t *testing.T) {
	_, srv := newTestServer(t)
	for _, tc := range []struct {
		goal string
		n    int
	}{{"asserta(p(0)), p(X)", 3}, {"retract(p(1)), p(X)", 1}} {
		var sols [2][]string
		for i, mode := range []string{"dynamic", "closure"} {
			hr, body := post(t, srv.URL+"/v1/query", apiRequest{
				Source:  "p(1). p(2).",
				Options: Options{Goal: tc.goal, Mode: mode},
			})
			if hr.StatusCode != http.StatusOK {
				t.Fatalf("%s (%s): status %d: %s", tc.goal, mode, hr.StatusCode, body)
			}
			var resp Response
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			sols[i] = resp.Solutions
		}
		if len(sols[0]) != tc.n || strings.Join(sols[0], ";") != strings.Join(sols[1], ";") {
			t.Errorf("%s: interpreter %v, closure %v", tc.goal, sols[0], sols[1])
		}
	}
}

func TestHTTPAllAnalyzeKinds(t *testing.T) {
	_, srv := newTestServer(t)
	logic := "ap([], L, L).\nap([H|T], L, [H|R]) :- ap(T, L, R)."
	fn := "ap(nil, Y) = Y.\nap(cons(X, Xs), Y) = cons(X, ap(Xs, Y))."
	for _, tc := range []struct {
		kind Kind
		src  string
	}{
		{KindGroundness, logic},
		{KindGAIA, logic},
		{KindBDD, logic},
		{KindDepthK, logic},
		{KindStrictness, fn},
	} {
		hr, body := post(t, fmt.Sprintf("%s/v1/analyze/%s", srv.URL, tc.kind), apiRequest{Source: tc.src})
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", tc.kind, hr.StatusCode, body)
			continue
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Errorf("%s: %v", tc.kind, err)
			continue
		}
		if resp.Kind != tc.kind {
			t.Errorf("kind %s, want %s", resp.Kind, tc.kind)
		}
		if len(resp.Predicates)+len(resp.Functions) == 0 {
			t.Errorf("%s: empty result: %s", tc.kind, body)
		}
	}
}

// TestPanicFailsOnlyItsRequest: an analysis that panics answers its own
// request with 500 and leaves the daemon serving. The panic is counted
// on /metrics and logged with its stack on the request's line, and the
// failure is not cached: a repeat runs (and fails) again. A batch item
// that panics fails alone.
func TestPanicFailsOnlyItsRequest(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Workers: 1, QueueSize: 8, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	const boom = "boom(1).\n"
	s.beforeExecute = func(r *Request) {
		if r.Source == boom {
			panic("injected fault")
		}
	}
	srv := httptest.NewServer(RequestIDMiddleware(s.Handler()))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	analyze := func(src string) int {
		t.Helper()
		hr, _ := post(t, srv.URL+"/v1/analyze/groundness", map[string]string{"source": src})
		return hr.StatusCode
	}

	if code := analyze(boom); code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", code)
	}
	if code := analyze("ok(1).\n"); code != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200", code)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if got, ok := findSample(parseProm(t, string(raw)), "xlpd_panics_total", nil); !ok || got.value != 1 {
		t.Fatalf("xlpd_panics_total = %+v (found %v), want 1", got, ok)
	}
	var line map[string]any
	for _, l := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(l, `"execution panicked"`) {
			if err := json.Unmarshal([]byte(l), &line); err != nil {
				t.Fatal(err)
			}
		}
	}
	if line == nil || line["req"] == nil || !strings.Contains(fmt.Sprint(line["stack"]), "TestPanicFailsOnlyItsRequest") {
		t.Fatalf("no panic log line with request ID and stack: %v", line)
	}

	if code := analyze(boom); code != http.StatusInternalServerError {
		t.Fatalf("repeated panicking request: status %d, want 500 (a failure must not be cached)", code)
	}
	hr, body := post(t, srv.URL+"/v1/batch", batchRequest{Items: []batchItem{
		{Kind: KindGroundness, Source: boom},
		{Kind: KindGroundness, Source: "ok(2).\n"},
	}})
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, %v: %s", hr.StatusCode, err, body)
	}
	if out.OK != 1 || out.Failed != 1 || !strings.Contains(out.Results[0].Error, ErrInternal.Error()) {
		t.Fatalf("batch with a panicking item: %s", body)
	}
	if st := s.Stats(); st.CacheLen != 2 || s.panics.Load() != 3 {
		t.Fatalf("cache holds %d entries, %d panics; want the 2 successes and 3 panics", st.CacheLen, s.panics.Load())
	}
}
