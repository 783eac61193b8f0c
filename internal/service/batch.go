package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// MaxBatchItems bounds one /v1/batch request. Each item is a full
// analysis; an unbounded batch would let a single request monopolize
// the queue indefinitely.
const MaxBatchItems = 256

// batchItem is one program in a /v1/batch body: a complete request,
// kind included (batches may mix analyzers).
type batchItem struct {
	Kind      Kind    `json:"kind"`
	Source    string  `json:"source"`
	Options   Options `json:"options"`
	TimeoutMs int     `json:"timeout_ms,omitempty"`
}

// batchRequest is the /v1/batch body.
type batchRequest struct {
	Items []batchItem `json:"items"`
	// Stream requests NDJSON delivery: one result line per item as it
	// completes validation+execution, in item order. The Accept header
	// (application/x-ndjson, text/event-stream) also selects it.
	Stream bool `json:"stream,omitempty"`
}

// batchItemResult is one item's outcome. Exactly one of Response and
// Error is set: items fail independently, and a failing item never
// aborts the rest of the batch (partial failure is the contract —
// see TestBatchPartialFailure).
type batchItemResult struct {
	Index    int       `json:"index"`
	Kind     Kind      `json:"kind"`
	Error    string    `json:"error,omitempty"`
	Response *Response `json:"response,omitempty"`
}

// batchSummary trails a batch: item counts by outcome.
type batchSummary struct {
	Done   bool `json:"done"`
	Items  int  `json:"items"`
	OK     int  `json:"ok"`
	Failed int  `json:"failed"`
}

// batchResponse is the buffered (non-streaming) /v1/batch reply.
type batchResponse struct {
	Items   int               `json:"items"`
	OK      int               `json:"ok"`
	Failed  int               `json:"failed"`
	Results []batchItemResult `json:"results"`
}

// runBatch evaluates the items concurrently (each through the normal
// Do path, so caching, single-flight dedup, the disk store, and the
// worker pool all apply per item) and delivers results in item order.
// emit is called once per item, in index order, as soon as that item
// and all items before it are done; a non-nil return stops delivery
// (client gone) but not evaluation. The per-item concurrency is
// bounded by the worker pool; submissions that bounce off a full
// queue fail that item alone (ErrQueueFull), not the batch.
func (s *Service) runBatch(ctx context.Context, br *batchRequest, emit func(batchItemResult) error) batchSummary {
	s.batches.Add(1)
	s.batchItems.Add(uint64(len(br.Items)))
	results := make([]batchItemResult, len(br.Items))
	// Fan out at most Workers items at a time: the pool can run no more
	// than that anyway, and holding the rest back keeps one big batch
	// from stuffing the queue and shedding interactive requests.
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i := range br.Items {
		it := &br.Items[i]
		wg.Add(1)
		go func(i int, it *batchItem) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, err := s.Do(ctx, &Request{
				Kind:      it.Kind,
				Source:    it.Source,
				Options:   it.Options,
				TimeoutMs: it.TimeoutMs,
			})
			r := batchItemResult{Index: i, Kind: it.Kind, Response: resp}
			if err != nil {
				r.Response = nil
				r.Error = err.Error()
				s.batchItemErrors.Add(1)
			}
			results[i] = r
		}(i, it)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	<-done

	sum := batchSummary{Done: true, Items: len(br.Items)}
	for _, r := range results {
		if r.Error != "" {
			sum.Failed++
		} else {
			sum.OK++
		}
		if emit != nil {
			if err := emit(r); err != nil {
				emit = nil
			}
		}
	}
	return sum
}

// handleBatch serves POST /v1/batch: many programs, one request. Items
// run concurrently through the normal per-request path and fail
// independently; the batch itself only fails on malformed bodies or
// shutdown. The reply is one buffered JSON document, or NDJSON/SSE
// lines (header, one result per item in order, summary trailer) when
// streaming is negotiated.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admitHTTP(w, r) {
		return
	}
	var body batchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %v", err))
		return
	}
	if len(body.Items) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: empty batch", ErrBadRequest))
		return
	}
	if len(body.Items) > MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: batch of %d exceeds %d items", ErrBadRequest, len(body.Items), MaxBatchItems))
		return
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return
	}

	if format := pickStreamFormat(r, body.Stream); format != streamNone {
		s.streams.Add(1)
		flusher, _ := w.(http.Flusher)
		if format == streamSSE {
			w.Header().Set("Content-Type", "text/event-stream")
			w.Header().Set("Cache-Control", "no-cache")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		writeEvent := func(event string, v any) error {
			if format == streamSSE {
				if _, err := w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
					return err
				}
			}
			if err := enc.Encode(v); err != nil {
				return err
			}
			if format == streamSSE {
				if _, err := w.Write([]byte("\n")); err != nil {
					return err
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
		if err := writeEvent("header", struct {
			Items int `json:"items"`
		}{len(body.Items)}); err != nil {
			return
		}
		sum := s.runBatch(r.Context(), &body, func(res batchItemResult) error {
			return writeEvent("item", res)
		})
		writeEvent("done", sum) //nolint:errcheck // final write; client gone means nothing to do
		return
	}

	out := batchResponse{Items: len(body.Items)}
	sum := s.runBatch(r.Context(), &body, func(res batchItemResult) error {
		out.Results = append(out.Results, res)
		return nil
	})
	out.OK, out.Failed = sum.OK, sum.Failed
	writeJSON(w, http.StatusOK, out)
}
