// Package service turns the repository's analyzers into a concurrent,
// cancellable, cacheable analysis service: a bounded worker pool runs
// analyses (each worker confines one non-goroutine-safe engine.Machine
// at a time), an LRU cache keyed by SHA-256 of (kind, canonicalized
// options, program source) reuses results across identical requests,
// and single-flight deduplication shares one computation among
// identical in-flight requests. The HTTP/JSON front end (Handler,
// served by cmd/xlpd) exposes the five analyzers and raw tabled queries
// under /v1; the same response structs back the CLI tools' -json flags,
// so command-line and server output are schema-identical.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"xlp/internal/analysis"
	"xlp/internal/bddprop"
	"xlp/internal/depthk"
	"xlp/internal/engine"
	"xlp/internal/gaia"
	"xlp/internal/lint"
	"xlp/internal/obs"
	"xlp/internal/prop"
	"xlp/internal/strict"
	"xlp/internal/term"
)

// Kind selects which analyzer a request runs.
type Kind string

const (
	KindGroundness Kind = "groundness" // Prop-domain tabled analyzer
	KindGAIA       Kind = "gaia"       // special-purpose abstract interpreter
	KindBDD        Kind = "bdd"        // BDD-based bottom-up analyzer
	KindStrictness Kind = "strictness" // demand-propagation strictness
	KindDepthK     Kind = "depthk"     // depth-k groundness
	KindQuery      Kind = "query"      // raw tabled query
	KindLint       Kind = "lint"       // object-program linter (no evaluation)
	KindExplain    Kind = "explain"    // answer provenance (justification DAG)
)

// Kinds lists every valid request kind, analysis kinds first.
func Kinds() []Kind {
	return []Kind{KindGroundness, KindGAIA, KindBDD, KindStrictness, KindDepthK, KindQuery, KindLint, KindExplain}
}

// Valid reports whether k names a known analyzer.
func (k Kind) Valid() bool {
	for _, v := range Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// Options carries every analyzer knob in one wire-level struct; fields
// irrelevant to a request's kind are ignored (and zeroed during
// canonicalization so they cannot split the cache).
type Options struct {
	// Mode selects clause loading: "dynamic" (default) or "closure"
	// (clauses compiled to Go closures; same answers, different cost
	// profile).
	Mode string `json:"mode,omitempty"`
	// Tables selects the engine's table representation: "trie" (default)
	// or "stringmap" (the canonical-string baseline). Answer sets are
	// identical either way; only table-space accounting differs.
	Tables string `json:"tables,omitempty"`
	// Entry lists entry points for goal-directed analysis (groundness,
	// depthk, strictness, gaia) and lint reachability roots. Each is an
	// indicator ("main/1"), a bare name ("main", every defined arity)
	// or a goal ("main(X)", its indicator; groundness also reads its
	// ground arguments as ground inputs). An analysis entry that
	// selects nothing the program defines fails the request.
	Entry []string `json:"entry,omitempty"`
	// Slice restricts goal-directed analyses to the call-graph cone
	// reachable from Entry before any program transformation runs.
	// Results are unchanged; only cost drops.
	Slice bool `json:"slice,omitempty"`
	// Lint attaches linter diagnostics to an analyze response.
	Lint bool `json:"lint,omitempty"`
	// Lang selects the lint object language: "prolog" (default) or "fl".
	Lang string `json:"lang,omitempty"`
	// K is the depth bound for depthk (default 2).
	K int `json:"k,omitempty"`
	// NoSupplementary disables supplementary tabling (strictness, depthk).
	NoSupplementary bool `json:"no_supplementary,omitempty"`
	// Goal is the query goal (kind "query" only).
	Goal string `json:"goal,omitempty"`
	// Pred names the predicate to explain (kind "explain" only):
	// "p/n" or a bare name. Empty explains the first predicate (in
	// indicator order) that recorded any answer.
	Pred string `json:"pred,omitempty"`
	// MaxNodes caps the derivation graph returned by an explain request
	// (0 = obs.DefaultDerivationNodes).
	MaxNodes int `json:"max_nodes,omitempty"`
	// Table lists predicate indicators ("p/2") to table for a query, in
	// addition to any ':- table' directives in the source.
	Table []string `json:"table,omitempty"`
	// Stream requests incremental delivery over HTTP: the response is
	// written as JSON lines (or SSE under Accept: text/event-stream)
	// — a header line, one line per predicate/function/solution/
	// diagnostic, and a trailer — instead of one buffered document.
	// Transport-only: it never changes the result and never splits the
	// cache.
	Stream bool `json:"stream,omitempty"`
	// Engine resource limits (0 = engine defaults).
	MaxDepth    int `json:"max_depth,omitempty"`
	MaxAnswers  int `json:"max_answers,omitempty"`
	MaxSubgoals int `json:"max_subgoals,omitempty"`
}

// Request is one unit of work for the service.
type Request struct {
	Kind    Kind    `json:"kind"`
	Source  string  `json:"source"`
	Options Options `json:"options"`
	// TimeoutMs bounds the request's wall clock (0 = the service's
	// default timeout). On expiry the request fails with
	// engine.ErrDeadline (HTTP 504).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Validate checks the request is well-formed before it is queued.
func (r *Request) Validate() error {
	if !r.Kind.Valid() {
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind)
	}
	if strings.TrimSpace(r.Source) == "" {
		return fmt.Errorf("%w: empty source", ErrBadRequest)
	}
	if r.Kind == KindQuery && strings.TrimSpace(r.Options.Goal) == "" {
		return fmt.Errorf("%w: query without goal", ErrBadRequest)
	}
	switch r.Options.Mode {
	case "", "dynamic", "closure":
	default:
		return fmt.Errorf("%w: unknown mode %q", ErrBadRequest, r.Options.Mode)
	}
	switch r.Options.Tables {
	case "", "trie", "stringmap":
	default:
		return fmt.Errorf("%w: unknown tables impl %q", ErrBadRequest, r.Options.Tables)
	}
	switch r.Options.Lang {
	case "", "prolog", "fl":
	default:
		return fmt.Errorf("%w: unknown lang %q", ErrBadRequest, r.Options.Lang)
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("%w: negative timeout", ErrBadRequest)
	}
	if r.Options.MaxNodes < 0 {
		return fmt.Errorf("%w: negative max_nodes", ErrBadRequest)
	}
	return nil
}

// canonicalOptions returns a copy of the options with defaults filled
// in and fields the kind does not consume zeroed, so that requests that
// differ only in irrelevant or defaulted fields share one cache entry.
func (r *Request) canonicalOptions() Options {
	o := r.Options
	if o.Mode == "" {
		o.Mode = "dynamic"
	}
	// Tables changes the response's table-space accounting (bytes and
	// node counts), so the two impls must not share a cache entry.
	if o.Tables == "" {
		o.Tables = "trie"
	}
	switch r.Kind {
	case KindGroundness:
		o.K, o.NoSupplementary, o.Goal, o.Table, o.Lang = 0, false, "", nil, ""
		o.Pred, o.MaxNodes = "", 0
	case KindGAIA:
		// Entry restricts the interpreter to the reachable cone; no
		// engine options apply.
		o = Options{Mode: "dynamic", Entry: o.Entry, Lint: o.Lint}
	case KindBDD:
		// Source-only analyzer: no engine options apply.
		o = Options{Mode: "dynamic", Lint: o.Lint}
	case KindStrictness:
		o.K, o.Goal, o.Table, o.Lang = 0, "", nil, ""
		o.Pred, o.MaxNodes = "", 0
	case KindDepthK:
		if o.K <= 0 {
			o.K = 2
		}
		o.Goal, o.Table, o.Lang = "", nil, ""
		o.Pred, o.MaxNodes = "", 0
	case KindQuery:
		o.K, o.Entry, o.NoSupplementary, o.Slice, o.Lint, o.Lang = 0, nil, false, false, false, ""
		o.Pred, o.MaxNodes = "", 0
		sort.Strings(o.Table)
	case KindLint:
		if o.Lang == "" {
			o.Lang = "prolog"
		}
		o = Options{Mode: "dynamic", Lang: o.Lang, Entry: o.Entry}
	case KindExplain:
		// Pred and MaxNodes legitimately split the cache: different
		// predicates (and different caps) yield different derivations.
		// Lang selects the underlying analysis (prolog -> groundness,
		// fl -> strictness); the kind itself already keeps explain
		// responses apart from plain analyze responses of the same
		// source.
		if o.Lang == "" {
			o.Lang = "prolog"
		}
		o.K, o.NoSupplementary, o.Goal, o.Table, o.Lint = 0, false, "", nil, false
	}
	// Slicing never changes results, only cost: a sliced and an unsliced
	// run of the same request share one cache entry.
	o.Slice = false
	// Streaming is a transport choice: a streamed and a buffered request
	// for the same analysis share one cache entry.
	o.Stream = false
	return o
}

// CacheKey is the content address of the request: SHA-256 over the
// kind, the canonicalized options, and the program source. Requests
// with equal keys have equal results.
func (r *Request) CacheKey() string {
	opts, err := json.Marshal(r.canonicalOptions())
	if err != nil {
		// Options is a plain struct of marshalable fields; unreachable.
		panic(err)
	}
	h := sha256.New()
	h.Write([]byte(r.Kind))
	h.Write([]byte{0})
	h.Write(opts)
	h.Write([]byte{0})
	h.Write([]byte(r.Source))
	return hex.EncodeToString(h.Sum(nil))
}

// engineMode maps the wire mode to the engine's LoadMode.
func (o Options) engineMode() engine.LoadMode {
	if o.Mode == "closure" {
		return engine.ModeClosure
	}
	return engine.LoadDynamic
}

// engineTables maps the wire tables impl to the engine's TablesImpl.
func (o Options) engineTables() engine.TablesImpl {
	if o.Tables == "stringmap" {
		return engine.TablesStringMap
	}
	return engine.TablesTrie
}

// engineLimits maps the wire limits to engine.Limits.
func (o Options) engineLimits() engine.Limits {
	return engine.Limits{
		MaxDepth:    o.MaxDepth,
		MaxAnswers:  o.MaxAnswers,
		MaxSubgoals: o.MaxSubgoals,
	}
}

// Timings is the paper's phase breakdown in microseconds.
type Timings struct {
	PreprocUs    int64 `json:"preproc_us"`
	AnalysisUs   int64 `json:"analysis_us"`
	CollectionUs int64 `json:"collection_us"`
	TotalUs      int64 `json:"total_us"`
}

// EngineReport is the wire form of the engine counters behind one
// response (absent for analyzers that do not run the tabled engine).
type EngineReport struct {
	Resolutions    int64 `json:"resolutions"`
	BuiltinCalls   int64 `json:"builtin_calls"`
	Subgoals       int64 `json:"subgoals"`
	Answers        int64 `json:"answers"`
	ProducerRuns   int64 `json:"producer_runs"`   // equals Subgoals
	ProducerPasses int64 `json:"producer_passes"` // equals Subgoals
	TableBytes     int64 `json:"table_bytes"`
	// Suspensions counts consumer records saved at incomplete tables;
	// Resumptions counts answers later delivered to them.
	Suspensions int64 `json:"suspensions"`
	Resumptions int64 `json:"resumptions"`
	// CallBytes + AnswerBytes partition TableBytes between the call
	// table and the answer tables.
	CallBytes   int64 `json:"call_bytes"`
	AnswerBytes int64 `json:"answer_bytes"`
	// TableNodes counts trie nodes backing the tables (0 under the
	// canonical-string-map representation).
	TableNodes int64 `json:"table_nodes"`
	// PredsCompiled and CompileNanos account closure compilation
	// (ModeClosure runs only).
	PredsCompiled int64 `json:"preds_compiled,omitempty"`
	CompileNanos  int64 `json:"compile_nanos,omitempty"`
	// ProvenanceBytes is the space charged to justification records
	// (provenance-enabled runs only).
	ProvenanceBytes int64 `json:"provenance_bytes,omitempty"`
}

func engineReport(st engine.Stats) *EngineReport {
	return &EngineReport{
		Resolutions:     int64(st.Resolutions),
		BuiltinCalls:    int64(st.BuiltinCalls),
		Subgoals:        int64(st.Subgoals),
		Answers:         int64(st.Answers),
		ProducerRuns:    int64(st.ProducerRuns),
		ProducerPasses:  int64(st.ProducerPasses),
		Suspensions:     int64(st.Suspensions),
		Resumptions:     int64(st.Resumptions),
		TableBytes:      int64(st.TableBytes),
		CallBytes:       int64(st.CallBytes),
		AnswerBytes:     int64(st.AnswerBytes),
		TableNodes:      int64(st.TableNodes),
		PredsCompiled:   int64(st.PredsCompiled),
		CompileNanos:    st.CompileNanos,
		ProvenanceBytes: int64(st.ProvenanceBytes),
	}
}

// PredReport is the wire form of one predicate's analysis result.
type PredReport struct {
	Indicator string `json:"indicator"`
	Arity     int    `json:"arity"`
	// Success is the success formula over A1..An (groundness kinds).
	Success    string `json:"success,omitempty"`
	GroundArgs []bool `json:"ground_args"`
	// Calls are recorded input patterns (goal-directed groundness).
	Calls []string `json:"calls,omitempty"`
	// Patterns are the abstract success patterns (depthk).
	Patterns  string `json:"patterns,omitempty"`
	Reachable bool   `json:"reachable"`
}

// FuncReport is the wire form of one function's strictness result.
type FuncReport struct {
	Indicator  string   `json:"indicator"`
	Arity      int      `json:"arity"`
	UnderE     []string `json:"under_e"`
	UnderD     []string `json:"under_d"`
	StrictArgs []bool   `json:"strict_args"`
}

// Response is the wire-level result of a request. The same struct backs
// the service endpoints and the CLI -json flags.
type Response struct {
	Kind   Kind `json:"kind"`
	Cached bool `json:"cached"`
	// Stored marks a cache hit that was served from the disk-backed
	// result store (a warm restart or an LRU-evicted entry) rather than
	// from memory.
	Stored bool `json:"stored,omitempty"`
	// Deduped marks a response obtained by joining another request's
	// in-flight computation rather than running or caching.
	Deduped    bool    `json:"deduped,omitempty"`
	Timings    Timings `json:"timings"`
	TableBytes int     `json:"table_bytes,omitempty"`
	// Engine carries the engine counters of the run that produced this
	// response (tabled kinds only; nil for gaia, bdd, and lint).
	Engine     *EngineReport `json:"engine,omitempty"`
	K          int           `json:"k,omitempty"`
	Predicates []PredReport  `json:"predicates,omitempty"`
	Functions  []FuncReport  `json:"functions,omitempty"`
	Solutions  []string      `json:"solutions,omitempty"`
	// Diagnostics carry linter output: always for kind "lint", and on
	// analyze responses when options.lint is set.
	Diagnostics []lint.Diagnostic `json:"diagnostics,omitempty"`
	// LintErrors counts the error-severity diagnostics.
	LintErrors int `json:"lint_errors,omitempty"`
	// Derivation is the justification DAG of the explained predicate's
	// recorded answers (kind "explain" only).
	Derivation *obs.Derivation `json:"derivation,omitempty"`
}

// shallowCopy returns a copy whose flags can be set without mutating
// the cached response. The slices are shared: responses are
// read-only once published.
func (r *Response) shallowCopy() *Response {
	cp := *r
	return &cp
}

func argNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i+1)
	}
	return names
}

// fromReport starts the wire form of a tabled analysis: its timings,
// table space and engine counters.
func fromReport(kind Kind, r *analysis.Report) *Response {
	return &Response{
		Kind: kind,
		Timings: Timings{
			PreprocUs:    r.PreprocTime.Microseconds(),
			AnalysisUs:   r.AnalysisTime.Microseconds(),
			CollectionUs: r.CollectionTime.Microseconds(),
			TotalUs:      r.Total().Microseconds(),
		},
		TableBytes: r.TableBytes,
		Engine:     engineReport(r.EngineStats),
	}
}

// FromGroundness converts a tabled groundness analysis to wire form.
func FromGroundness(a *prop.Analysis) *Response {
	resp := fromReport(KindGroundness, &a.Report)
	for _, r := range analysis.Sorted(a.Results) {
		pr := PredReport{
			Indicator:  r.Indicator,
			Arity:      r.Arity,
			Success:    r.FormatSuccess(),
			GroundArgs: r.GroundArgs,
			Reachable:  r.Reachable,
		}
		for _, c := range r.Calls {
			pr.Calls = append(pr.Calls, c.String())
		}
		resp.Predicates = append(resp.Predicates, pr)
	}
	return resp
}

// FromGAIA converts a special-purpose analyzer run to wire form.
func FromGAIA(a *gaia.Analysis) *Response {
	resp := &Response{
		Kind: KindGAIA,
		Timings: Timings{
			PreprocUs:  a.PreprocTime.Microseconds(),
			AnalysisUs: a.AnalysisTime.Microseconds(),
			TotalUs:    a.Total().Microseconds(),
		},
	}
	for _, r := range analysis.Sorted(a.Results) {
		resp.Predicates = append(resp.Predicates, PredReport{
			Indicator:  r.Indicator,
			Arity:      r.Arity,
			Success:    r.Success.Format(argNames(r.Arity)),
			GroundArgs: r.GroundArgs,
			Reachable:  true,
		})
	}
	return resp
}

// FromBDD converts a BDD-based analyzer run to wire form.
func FromBDD(a *bddprop.Analysis) *Response {
	resp := &Response{
		Kind: KindBDD,
		Timings: Timings{
			PreprocUs:  a.PreprocTime.Microseconds(),
			AnalysisUs: a.AnalysisTime.Microseconds(),
			TotalUs:    a.Total().Microseconds(),
		},
	}
	for _, r := range analysis.Sorted(a.Results) {
		resp.Predicates = append(resp.Predicates, PredReport{
			Indicator:  r.Indicator,
			Arity:      r.Arity,
			GroundArgs: r.GroundArgs,
			Reachable:  true,
		})
	}
	return resp
}

// FromStrictness converts a strictness analysis to wire form.
func FromStrictness(a *strict.Analysis) *Response {
	resp := fromReport(KindStrictness, &a.Report)
	for _, r := range analysis.Sorted(a.Results) {
		fr := FuncReport{
			Indicator:  r.Indicator,
			Arity:      r.Arity,
			StrictArgs: make([]bool, r.Arity),
		}
		for i := 0; i < r.Arity; i++ {
			fr.UnderE = append(fr.UnderE, r.UnderE[i].String())
			fr.UnderD = append(fr.UnderD, r.UnderD[i].String())
			fr.StrictArgs[i] = r.Strict(i)
		}
		resp.Functions = append(resp.Functions, fr)
	}
	return resp
}

// FromDepthK converts a depth-k groundness analysis to wire form.
func FromDepthK(a *depthk.Analysis) *Response {
	resp := fromReport(KindDepthK, &a.Report)
	resp.K = a.K
	for _, r := range analysis.Sorted(a.Results) {
		resp.Predicates = append(resp.Predicates, PredReport{
			Indicator:  r.Indicator,
			Arity:      r.Arity,
			GroundArgs: r.GroundArgs,
			Patterns:   canonicalPatterns(r.Answers),
			Reachable:  r.Reachable,
		})
	}
	return resp
}

// FromLint converts a linter run to wire form.
func FromLint(res *lint.Result) *Response {
	return &Response{
		Kind:        KindLint,
		Diagnostics: res.Diagnostics,
		LintErrors:  res.Errors(),
	}
}

// runLint lints the request source in the options' object language with
// the options' entry points as reachability roots.
func runLint(source string, o Options) *lint.Result {
	lopts := lint.Options{Entrypoints: o.Entry}
	if o.Lang == "fl" {
		return lint.FL(source, lopts)
	}
	return lint.Prolog(source, lopts)
}

// attachLint adds linter diagnostics to an analyze response. The lint
// language follows the analysis kind: strictness analyzes functional
// programs, every other kind logic programs.
func attachLint(resp *Response, req *Request) {
	o := req.Options
	if req.Kind == KindStrictness {
		o.Lang = "fl"
	} else {
		o.Lang = "prolog"
	}
	res := runLint(req.Source, o)
	resp.Diagnostics = res.Diagnostics
	resp.LintErrors = res.Errors()
}

// canonicalPatterns renders depth-k success patterns deterministically:
// canonical form numbers variables _0, _1, ... per answer (the engine's
// gensym names differ between runs), and sorting removes the analyzer's
// table-iteration order. Identical requests must produce byte-identical
// responses for the result cache to be transparent.
func canonicalPatterns(answers []term.Term) string {
	parts := make([]string, len(answers))
	for i, a := range answers {
		parts[i] = strings.ReplaceAll(term.Canonical(a), "'"+string(depthk.Gamma)+"'", "γ")
	}
	sort.Strings(parts)
	return strings.Join(parts, " ; ")
}
