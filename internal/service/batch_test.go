package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xlp/internal/testutil"
)

const batchGoodSrc = `:- table anc/2.
par(a,b). par(b,c).
anc(X,Y) :- par(X,Y).
anc(X,Y) :- par(X,Z), anc(Z,Y).`

// TestBatchBuffered: a mixed-kind batch returns one result per item in
// item order, and the batch counters account for it.
func TestBatchBuffered(t *testing.T) {
	s, srv := newTestServer(t)
	hr, body := post(t, srv.URL+"/v1/batch", batchRequest{Items: []batchItem{
		{Kind: KindGroundness, Source: batchGoodSrc},
		{Kind: KindQuery, Source: batchGoodSrc, Options: Options{Goal: "anc(a, X)"}},
		{Kind: KindDepthK, Source: batchGoodSrc, Options: Options{K: 1}},
	}})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Items != 3 || out.OK != 3 || out.Failed != 0 || len(out.Results) != 3 {
		t.Fatalf("bad summary: %s", body)
	}
	for i, r := range out.Results {
		if r.Index != i || r.Error != "" || r.Response == nil {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
	if got := out.Results[1].Response.Solutions; len(got) != 2 {
		t.Errorf("query item: want 2 solutions, got %v", got)
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchItems != 3 || st.BatchItemErrors != 0 {
		t.Errorf("batch counters: %+v", st)
	}
}

// TestBatchPartialFailure: one malformed program fails its own item
// only — the batch stays 200, sibling items succeed, and neither the
// failure nor its siblings poison the cache.
func TestBatchPartialFailure(t *testing.T) {
	s, srv := newTestServer(t)
	bad := batchItem{Kind: KindQuery, Source: "p(", Options: Options{Goal: "p(X)"}}
	hr, body := post(t, srv.URL+"/v1/batch", batchRequest{Items: []batchItem{
		{Kind: KindQuery, Source: batchGoodSrc, Options: Options{Goal: "anc(a, X)"}},
		bad,
		{Kind: KindGroundness, Source: batchGoodSrc},
		{Kind: "nosuch", Source: "a."},
	}})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.OK != 2 || out.Failed != 2 {
		t.Fatalf("want 2 ok + 2 failed, got: %s", body)
	}
	if out.Results[1].Error == "" || out.Results[1].Response != nil {
		t.Fatalf("bad item must carry an error only: %+v", out.Results[1])
	}
	if out.Results[3].Error == "" {
		t.Fatalf("unknown kind must fail its item: %+v", out.Results[3])
	}
	if out.Results[0].Error != "" || out.Results[2].Error != "" {
		t.Fatalf("good items failed: %s", body)
	}

	// The failures were not cached; the successes were. Re-running the
	// whole batch serves the good items from cache and re-fails the bad
	// ones the same way.
	hr, body = post(t, srv.URL+"/v1/batch", batchRequest{Items: []batchItem{
		{Kind: KindQuery, Source: batchGoodSrc, Options: Options{Goal: "anc(a, X)"}},
		bad,
	}})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("rerun status %d: %s", hr.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Response == nil || !out.Results[0].Response.Cached {
		t.Errorf("good item not served from cache on rerun: %s", body)
	}
	if out.Results[1].Error == "" {
		t.Errorf("bad item must fail again (not be cached): %s", body)
	}
	if st := s.Stats(); st.BatchItemErrors != 3 {
		t.Errorf("want 3 batch item errors, got %+v", st)
	}
}

// TestBatchStreamNDJSON: streamed batches deliver header, per-item
// lines in item order, and a summary trailer.
func TestBatchStreamNDJSON(t *testing.T) {
	_, srv := newTestServer(t)
	buf, err := json.Marshal(batchRequest{
		Stream: true,
		Items: []batchItem{
			{Kind: KindGroundness, Source: batchGoodSrc},
			{Kind: KindQuery, Source: "p(", Options: Options{Goal: "p(X)"}},
			{Kind: KindQuery, Source: batchGoodSrc, Options: Options{Goal: "anc(a, X)"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 { // header + 3 items + trailer
		t.Fatalf("want 5 lines, got %d: %v", len(lines), lines)
	}
	var hdr struct {
		Items int `json:"items"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Items != 3 {
		t.Fatalf("bad header %q: %v", lines[0], err)
	}
	for i, line := range lines[1:4] {
		var item batchItemResult
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("item line %d: %v", i, err)
		}
		if item.Index != i {
			t.Fatalf("items out of order: line %d has index %d", i, item.Index)
		}
		if wantErr := i == 1; (item.Error != "") != wantErr {
			t.Fatalf("item %d: error=%q", i, item.Error)
		}
	}
	var sum batchSummary
	if err := json.Unmarshal([]byte(lines[4]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Items != 3 || sum.OK != 2 || sum.Failed != 1 {
		t.Fatalf("bad trailer: %+v", sum)
	}
}

// TestBatchValidation covers the batch-level request errors.
func TestBatchValidation(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		name string
		body any
	}{
		{"empty", batchRequest{}},
		{"oversized", batchRequest{Items: make([]batchItem, MaxBatchItems+1)}},
		{"unknown field", map[string]any{"programs": []any{}}},
		// A field the batch body no longer has is rejected, not ignored.
		{"removed field parallel", map[string]any{
			"items":    []any{map[string]any{"kind": "groundness", "source": batchGoodSrc}},
			"parallel": 2,
		}},
	}
	for _, tc := range cases {
		hr, body := post(t, srv.URL+"/v1/batch", tc.body)
		if hr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, hr.StatusCode, body)
		}
	}
}

// TestBatchShutdown: a server mid-shutdown rejects new batches with
// 503, and shutting down while a batch is in flight neither deadlocks
// nor leaks goroutines — items either complete normally or fail with
// the service's closed error.
func TestBatchShutdown(t *testing.T) {
	before := testutil.Goroutines()
	s := New(Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())

	items := make([]batchItem, 8)
	for i := range items {
		items[i] = batchItem{Kind: KindQuery, Source: slowOKSrc, Options: Options{Goal: "q"}}
		items[i].Source += "\nmark(" + string(rune('a'+i)) + ")." // distinct cache keys
	}
	buf, err := json.Marshal(batchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var out batchResponse
	var postErr error
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
		if err != nil {
			postErr = err
			return
		}
		defer resp.Body.Close()
		postErr = json.NewDecoder(resp.Body).Decode(&out)
	}()

	// Let the batch get going, then drain the service under it.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if postErr != nil {
		t.Fatalf("batch during shutdown: %v", postErr)
	}
	if out.OK+out.Failed != len(items) {
		t.Fatalf("batch lost items: %+v", out)
	}
	for _, r := range out.Results {
		if r.Error != "" && !strings.Contains(r.Error, ErrClosed.Error()) {
			t.Errorf("item %d: unexpected error %q", r.Index, r.Error)
		}
	}

	// Fully closed: new batches are rejected outright.
	hr, body := post(t, srv.URL+"/v1/batch", batchRequest{Items: items[:1]})
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown batch: status %d: %s", hr.StatusCode, body)
	}
	srv.Close()
	testutil.AssertNoLeaks(t, before)
}
