package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const explainSrc = ":- table path/2.\nedge(a,b). edge(b,c). edge(c,d).\npath(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n"

func TestExplainEndpointReturnsDerivation(t *testing.T) {
	_, srv := newTestServer(t)
	for _, mode := range []string{"dynamic", "closure"} {
		hr, body := post(t, srv.URL+"/v1/explain", apiRequest{
			Source:  explainSrc,
			Options: Options{Pred: "path/2", Mode: mode},
		})
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("mode=%s: status %d: %s", mode, hr.StatusCode, body)
		}
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindExplain || resp.Derivation == nil {
			t.Fatalf("mode=%s: no derivation in response: %s", mode, body)
		}
		if len(resp.Derivation.Roots) == 0 || len(resp.Derivation.Nodes) == 0 {
			t.Fatalf("mode=%s: empty derivation: %+v", mode, resp.Derivation)
		}
		if resp.Engine == nil || resp.Engine.ProvenanceBytes <= 0 {
			t.Fatalf("mode=%s: provenance accounting missing: %+v", mode, resp.Engine)
		}
	}
}

func TestExplainEndpointDefaultsAndErrors(t *testing.T) {
	_, srv := newTestServer(t)
	// No pred: the first predicate with answers is explained.
	hr, body := post(t, srv.URL+"/v1/explain", apiRequest{Source: explainSrc})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Derivation == nil || len(resp.Derivation.Roots) == 0 {
		t.Fatalf("no default derivation: %s", body)
	}
	// Unknown predicate: 400, not 500.
	hr, body = post(t, srv.URL+"/v1/explain", apiRequest{
		Source:  explainSrc,
		Options: Options{Pred: "nosuch/9"},
	})
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown pred: status %d: %s", hr.StatusCode, body)
	}
}

// TestExplainCacheKeySplit checks that explain requests over the same
// source with different preds (and different kinds entirely) do not
// share cache entries.
func TestExplainCacheKeySplit(t *testing.T) {
	mk := func(kind Kind, o Options) string {
		r := &Request{Kind: kind, Source: explainSrc, Options: o}
		return r.CacheKey()
	}
	keys := []string{
		mk(KindExplain, Options{Pred: "path/2"}),
		mk(KindExplain, Options{Pred: "edge/2"}),
		mk(KindExplain, Options{Pred: "path/2", MaxNodes: 5}),
		mk(KindGroundness, Options{}),
		mk(KindExplain, Options{Pred: "path/2", Lang: "fl"}),
	}
	seen := map[string]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Fatalf("cache keys %d and %d collide", i, j)
		}
		seen[k] = i
	}
	// Stray fields on non-explain kinds must not split their cache.
	a := (&Request{Kind: KindGroundness, Source: explainSrc}).CacheKey()
	b := (&Request{Kind: KindGroundness, Source: explainSrc, Options: Options{Pred: "x/1", MaxNodes: 7}}).CacheKey()
	if a != b {
		t.Fatal("pred/max_nodes split the groundness cache")
	}
}

func TestDebugTablesEndpoint(t *testing.T) {
	s, srv := newTestServer(t)
	if _, err := s.Do(context.Background(), &Request{Kind: KindGroundness, Source: explainSrc}); err != nil {
		t.Fatal(err)
	}
	hr, err := http.Get(srv.URL + "/debug/tables")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, raw)
	}
	var rep TablesReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Recent) == 0 {
		t.Fatalf("finished run missing from /debug/tables: %s", raw)
	}
	w := rep.Recent[0]
	if !w.Done || w.Kind != KindGroundness || w.RequestID == "" {
		t.Fatalf("bad watch report: %+v", w)
	}
	// The groundness run tables abstract predicates; the watch must
	// have seen subgoals, answers, and completions for them.
	var subgoals, answers, completions, nodes int
	for _, p := range w.Preds {
		subgoals += p.Subgoals
		answers += p.Answers
		completions += p.Completions
		nodes += p.TableNodes
	}
	if subgoals == 0 || answers == 0 || completions == 0 || nodes == 0 {
		t.Fatalf("live counters empty: %s", raw)
	}
}

func TestRequestIDMiddlewareAndLogs(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestService(t, Config{
		Workers:   1,
		QueueSize: 8,
		Logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	srv := httptest.NewServer(RequestIDMiddleware(s.Handler()))
	defer srv.Close()

	// A supplied ID is propagated and echoed.
	req, _ := http.NewRequest("POST", srv.URL+"/v1/analyze/groundness",
		strings.NewReader(fmt.Sprintf(`{"source": %q}`, explainSrc)))
	req.Header.Set(RequestIDHeader, "test-req-42")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body) //nolint:errcheck
	hr.Body.Close()
	if got := hr.Header.Get(RequestIDHeader); got != "test-req-42" {
		t.Fatalf("request ID not echoed: %q", got)
	}

	// An absent ID is generated and echoed.
	hr2, err := http.Post(srv.URL+"/v1/analyze/groundness", "application/json",
		strings.NewReader(fmt.Sprintf(`{"source": %q}`, explainSrc+"% distinct\n")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr2.Body) //nolint:errcheck
	hr2.Body.Close()
	if hr2.Header.Get(RequestIDHeader) == "" {
		t.Fatal("no generated request ID on response")
	}

	// Every lifecycle log line of the first request carries its ID.
	logs := logBuf.String()
	for _, msg := range []string{"request accepted", "executing", "executed"} {
		found := false
		for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("non-JSON log line %q: %v", line, err)
			}
			if rec["msg"] == msg && rec["req"] == "test-req-42" {
				found = true
			}
		}
		if !found {
			t.Fatalf("no %q log line for test-req-42:\n%s", msg, logs)
		}
	}
}

// TestResponseTextIndependentOfProcessVariables sends the same query and
// explain requests to two services in one process. The second service
// runs after the first has made variables, so any variable name that
// leaks the process-global counter into a solution or a derivation
// would differ between the two responses.
func TestResponseTextIndependentOfProcessVariables(t *testing.T) {
	reqs := []*Request{
		{Kind: KindQuery, Source: ":- table p/2.\np(X, X).\np(a, Y).\n", Options: Options{Goal: "p(A, B)"}},
		{Kind: KindExplain, Source: "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n", Options: Options{Pred: "app/3"}},
	}
	texts := func() []string {
		s := newTestService(t, Config{Workers: 1})
		var out []string
		for _, req := range reqs {
			resp, err := s.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %v", req.Kind, err)
			}
			b, err := json.Marshal([]any{resp.Solutions, resp.Derivation})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	first, second := texts(), texts()
	for i := range reqs {
		if first[i] != second[i] {
			t.Errorf("%s: responses differ between services:\n%s\n%s", reqs[i].Kind, first[i], second[i])
		}
	}
	if !strings.Contains(first[0], `"p(_0,_0)"`) {
		t.Errorf("query solutions not canonical: %s", first[0])
	}
}
