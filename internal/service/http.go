package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"xlp/internal/engine"
	"xlp/internal/harness"
	"xlp/internal/obs"
)

// apiRequest is the HTTP body of an analyze/query call; the kind comes
// from the URL path.
type apiRequest struct {
	Source    string  `json:"source"`
	Options   Options `json:"options"`
	TimeoutMs int     `json:"timeout_ms,omitempty"`
}

// apiError is the HTTP error body.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/analyze/{kind}  kind ∈ groundness|gaia|bdd|strictness|depthk
//	                         (options.lint attaches linter diagnostics)
//	POST /v1/lint            object-program linter (options.lang: prolog|fl)
//	POST /v1/query           raw tabled query (options.goal required)
//	POST /v1/explain         answer provenance: justification DAG of a
//	                         predicate's answers (options.pred, options.lang)
//	POST /v1/batch           many programs in one request; items run
//	                         concurrently and fail independently
//	GET  /v1/stats           counters; ?format=text for a rendered table
//	GET  /debug/tables       live per-predicate table state of executing runs
//	GET  /metrics            Prometheus text exposition
//
// Every POST endpoint supports streaming delivery (options.stream, or
// Accept: application/x-ndjson / text/event-stream) and sits behind
// per-client admission control when Config.RateLimit is set: shed
// requests get 429 with a Retry-After header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze/{kind}", s.timed("POST /v1/analyze/{kind}", s.handleAnalyze))
	mux.HandleFunc("POST /v1/lint", s.timed("POST /v1/lint", s.handleLint))
	mux.HandleFunc("POST /v1/query", s.timed("POST /v1/query", s.handleQuery))
	mux.HandleFunc("POST /v1/explain", s.timed("POST /v1/explain", s.handleExplain))
	mux.HandleFunc("POST /v1/batch", s.timed("POST /v1/batch", s.handleBatch))
	mux.HandleFunc("GET /v1/stats", s.timed("GET /v1/stats", s.handleStats))
	mux.HandleFunc("GET /debug/tables", s.timed("GET /debug/tables", s.handleDebugTables))
	mux.HandleFunc("GET /metrics", s.timed("GET /metrics", s.handleMetrics))
	return mux
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	kind := Kind(r.PathValue("kind"))
	if !kind.Valid() || kind == KindQuery || kind == KindLint {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown analysis kind %q", kind))
		return
	}
	s.serve(w, r, kind)
}

func (s *Service) handleLint(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, KindLint)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, KindQuery)
}

func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, KindExplain)
}

func (s *Service) serve(w http.ResponseWriter, r *http.Request, kind Kind) {
	if !s.admitHTTP(w, r) {
		return
	}
	var body apiRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return
	}
	resp, err := s.Do(r.Context(), &Request{
		Kind:      kind,
		Source:    body.Source,
		Options:   body.Options,
		TimeoutMs: body.TimeoutMs,
	})
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			// Shed load always carries a retry hint; queue pressure is
			// transient, so "soon" is honest.
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	if format := pickStreamFormat(r, body.Options.Stream); format != streamNone {
		s.streamResponse(w, format, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// admitHTTP runs per-client admission control before any body decoding
// happens; a shed request costs the server one map lookup and a 429.
func (s *Service) admitHTTP(w http.ResponseWriter, r *http.Request) bool {
	client := ClientID(r)
	ok, retry := s.Admit(client)
	if ok {
		return true
	}
	secs := int(retry.Seconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("%w: client %q over admission rate", ErrRateLimited, client))
	return false
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		statsTable(st).Render(w)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Stats
		HitRate float64  `json:"hit_rate"`
		Build   obs.Info `json:"build"`
	}{st, st.HitRate(), obs.Build(s.cfg.Version)})
}

// statsTable renders the counters in the same tabular form as the
// paper-reproduction harness, with its phase-timing columns.
func statsTable(st Stats) *harness.Table {
	n := func(v uint64) string { return fmt.Sprint(v) }
	us := func(v int64) string { return fmt.Sprintf("%.2f", float64(v)/1000.0) }
	return &harness.Table{
		Title: "Analysis service counters",
		Columns: []string{"Requests", "Hits", "Misses", "Deduped", "Executed",
			"Failures", "Queue", "InFlight", "Preproc(ms)", "Analysis(ms)", "Collection(ms)"},
		Rows: [][]string{{
			n(st.Requests), n(st.Hits), n(st.Misses), n(st.Deduped), n(st.Executed),
			n(st.Failures), fmt.Sprint(st.QueueDepth), fmt.Sprint(st.InFlight),
			us(st.PreprocUs), us(st.AnalysisUs), us(st.CollectionUs),
		}},
		Notes: []string{
			fmt.Sprintf("cache %d/%d entries, hit rate %.1f%%, %d workers",
				st.CacheLen, st.CacheCap, 100*st.HitRate(), st.Workers),
			func() string {
				if st.Store == nil {
					return fmt.Sprintf("disk store off; shed %d (queue) + %d (rate), %d streamed",
						st.ShedQueue, st.ShedRate, st.Streams)
				}
				return fmt.Sprintf("disk store %d entries, %d hits, %d writes, %d corrupt; shed %d (queue) + %d (rate), %d streamed",
					st.Store.Entries, st.Store.Hits, st.Store.Writes, st.Store.Corrupt,
					st.ShedQueue, st.ShedRate, st.Streams)
			}(),
			fmt.Sprintf("uptime %.0fs, peak in-flight %d, peak queue depth %d",
				st.UptimeSeconds, st.PeakInFlight, st.PeakQueueDepth),
			fmt.Sprintf("lint: %d requests, %d diagnostics",
				st.LintRequests, st.LintDiagnostics),
			fmt.Sprintf("batch: %d batches, %d items, %d item errors; %d parallel-eligible runs",
				st.Batches, st.BatchItems, st.BatchItemErrors, st.ParallelRuns),
			fmt.Sprintf("engine: %d resolutions, %d subgoals, %d answers, %d suspensions, %d resumptions, %d table bytes",
				st.Engine.Resolutions, st.Engine.Subgoals, st.Engine.Answers,
				st.Engine.Suspensions, st.Engine.Resumptions, st.Engine.TableBytes),
		},
	}
}

// statusFor maps service and engine errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, engine.ErrDeadline):
		return http.StatusGatewayTimeout // 504: evaluation deadline expired
	case errors.Is(err, engine.ErrCanceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrDepthLimit),
		errors.Is(err, engine.ErrAnswerLimit),
		errors.Is(err, engine.ErrSubgoalLimit):
		return http.StatusUnprocessableEntity // program exceeds resource limits
	default:
		return http.StatusUnprocessableEntity // analysis/parse failure
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}
