package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// EventKind identifies one engine trace event.
type EventKind uint8

const (
	// EvSubgoalNew: a new tabled call was entered in the call table;
	// n is the canonical byte size of the call (table-space charge).
	EvSubgoalNew EventKind = iota
	// EvAnswerNew: a distinct answer was added to a table; n is the
	// canonical byte size of the answer.
	EvAnswerNew
	// EvAnswerDup: a derived answer was a variant of a recorded one and
	// was filtered out.
	EvAnswerDup
	// EvProducerRun: a subgoal's producer was activated (once per
	// subgoal).
	EvProducerRun
	// EvProducerPass: one full clause pass inside a producer.
	EvProducerPass
	// EvComplete: a subgoal was marked complete by its SCC leader; n is
	// the number of consumer records freed with it.
	EvComplete
	// EvResolutions: n clause-head unification attempts were made for
	// the predicate. Counter-only: it updates the per-predicate totals
	// but is never recorded in the event ring (resolutions outnumber
	// every other event by orders of magnitude).
	EvResolutions
	// EvTableNodes: n table-trie nodes were allocated while entering a
	// subgoal or answer for the predicate (trie-backed tables only).
	// Counter-only, like EvResolutions: the matching EvSubgoalNew /
	// EvAnswerNew event already lands in the ring.
	EvTableNodes
	// EvCompile: the predicate was translated to closure code
	// (ModeClosure); n is the compile time in nanoseconds.
	EvCompile
	// EvParallelGroup: SolveAll scheduled one independent goal group
	// onto a machine shard; n is the number of goals in the group. The
	// pred field carries the scheduler label, not an indicator.
	EvParallelGroup
	// EvSuspend: a tabled call reached an incomplete table of the
	// predicate and saved its continuation as a consumer record.
	EvSuspend
	// EvResume: n answers of the predicate's table were delivered to a
	// saved consumer. Counter-only, like EvResolutions.
	EvResume
)

var kindNames = [...]string{
	EvSubgoalNew:    "subgoal_new",
	EvAnswerNew:     "answer_new",
	EvAnswerDup:     "answer_dup",
	EvProducerRun:   "producer_run",
	EvProducerPass:  "producer_pass",
	EvComplete:      "complete",
	EvResolutions:   "resolutions",
	EvTableNodes:    "table_nodes",
	EvCompile:       "compile",
	EvParallelGroup: "parallel_group",
	EvSuspend:       "suspend",
	EvResume:        "resume",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// EngineTracer receives engine evaluation events. Emit is called on the
// engine's hot paths: implementations must not block and should not
// allocate per call. pred is the predicate indicator ("p/2"); n is a
// kind-specific magnitude (canonical bytes for subgoals/answers, an
// attempt count for EvResolutions, 0 otherwise).
type EngineTracer interface {
	Emit(kind EventKind, pred string, n int)
}

// Event is one recorded engine event.
type Event struct {
	At   time.Duration // offset from the trace's origin
	Kind EventKind
	Pred string
	N    int
}

// PredCounters are the per-predicate totals a trace derives from the
// event stream — the "top tables" view of Tables 1-4's table-space
// column, split by predicate.
type PredCounters struct {
	Pred           string `json:"pred"`
	Subgoals       int    `json:"subgoals"`
	Answers        int    `json:"answers"`
	Duplicates     int    `json:"duplicates"`
	Resolutions    int    `json:"resolutions"`
	ProducerRuns   int    `json:"producer_runs"`
	ProducerPasses int    `json:"producer_passes"`
	Suspensions    int    `json:"suspensions"`
	Resumptions    int    `json:"resumptions"`
	Completions    int    `json:"completions"`
	TableBytes     int    `json:"table_bytes"`
	TableNodes     int    `json:"table_nodes"`
	CompileNs      int64  `json:"compile_ns,omitempty"`
	ParallelGroups int    `json:"parallel_groups,omitempty"`
}

// Trace is an EngineTracer that records events into a bounded ring
// buffer (oldest events are overwritten once the capacity is reached)
// and accumulates per-predicate counters. It is not safe for concurrent
// use; each engine.Machine needs its own Trace.
type Trace struct {
	t0    time.Time
	cap   int
	ring  []Event
	next  int // write position once the ring is full
	total int // ring-eligible events seen (dropped = total - len(ring))
	preds map[string]*PredCounters
}

// DefaultTraceCap is the ring capacity NewTrace uses for cap <= 0.
const DefaultTraceCap = 8192

// NewTrace returns a trace whose ring holds up to capacity events
// (DefaultTraceCap when capacity <= 0). Counters are unbounded.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{
		t0:    time.Now(),
		cap:   capacity,
		preds: map[string]*PredCounters{},
	}
}

// Emit implements EngineTracer.
func (t *Trace) Emit(kind EventKind, pred string, n int) {
	pc := t.preds[pred]
	if pc == nil {
		pc = &PredCounters{Pred: pred}
		t.preds[pred] = pc
	}
	switch kind {
	case EvSubgoalNew:
		pc.Subgoals++
		pc.TableBytes += n
	case EvAnswerNew:
		pc.Answers++
		pc.TableBytes += n
	case EvAnswerDup:
		pc.Duplicates++
	case EvProducerRun:
		pc.ProducerRuns++
	case EvProducerPass:
		pc.ProducerPasses++
	case EvSuspend:
		pc.Suspensions++
	case EvResume:
		pc.Resumptions += n
		return // counter-only, keep the ring for structural events
	case EvComplete:
		pc.Completions++
	case EvResolutions:
		pc.Resolutions += n
		return // counter-only, keep the ring for structural events
	case EvTableNodes:
		pc.TableNodes += n
		return // counter-only, keep the ring for structural events
	case EvCompile:
		pc.CompileNs += int64(n)
	case EvParallelGroup:
		pc.ParallelGroups++
	}
	ev := Event{At: time.Since(t.t0), Kind: kind, Pred: pred, N: n}
	t.total++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, ev)
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % t.cap
}

// Events returns the retained events in chronological order.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Trace) Dropped() int { return t.total - len(t.ring) }

// PredStats returns the per-predicate counters sorted by indicator.
func (t *Trace) PredStats() []PredCounters {
	out := make([]PredCounters, 0, len(t.preds))
	for _, pc := range t.preds {
		out = append(out, *pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out
}

// TopTables returns the n predicates with the largest table space
// (ties broken by indicator), the per-predicate split of the paper's
// "Table space (bytes)" column.
func (t *Trace) TopTables(n int) []PredCounters {
	out := t.PredStats()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TableBytes != out[j].TableBytes {
			return out[i].TableBytes > out[j].TableBytes
		}
		return out[i].Pred < out[j].Pred
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// jsonlEvent is the JSONL wire form of one event.
type jsonlEvent struct {
	AtUs int64  `json:"at_us"`
	Ev   string `json:"ev"`
	Pred string `json:"pred"`
	N    int    `json:"n,omitempty"`
}

// WriteJSONL writes the retained events one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		rec := jsonlEvent{AtUs: ev.At.Microseconds(), Ev: ev.Kind.String(), Pred: ev.Pred, N: ev.N}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event JSON format
// (load the file in chrome://tracing or https://ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"` // "X" complete span, "i" instant
	Ts   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the trace — and, when tl is non-nil, its
// phase timeline as duration spans — in Chrome trace_event format.
// Phases render on tid 0, engine events as instants on tid 1.
func (t *Trace) WriteChromeTrace(w io.Writer, tl *Timeline) error {
	var evs []chromeEvent
	if tl != nil {
		for _, p := range tl.Phases() {
			evs = append(evs, chromeEvent{
				Name: p.Name, Cat: "phase", Ph: "X",
				Ts: p.Start.Microseconds(), Dur: p.Dur.Microseconds(),
				Pid: 1, Tid: 0,
			})
		}
	}
	for _, ev := range t.Events() {
		evs = append(evs, chromeEvent{
			Name: ev.Kind.String(), Cat: "engine", Ph: "i",
			Ts: ev.At.Microseconds(), Pid: 1, Tid: 1, S: "t",
			Args: map[string]any{"pred": ev.Pred, "n": ev.N},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
}
