package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one request share Req; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, req string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns, per span name, the count, the summed duration and the
// summed self time: each span's duration minus the part of its interval
// that the union of its children covers. Children may overlap each other
// or stick out of their parent; only the covered part inside the parent
// is subtracted, once.
func selfTimes(spans []span) map[string]*layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// printSelfTimes writes the per-layer self-time table, largest self time
// first, with each layer's share of the root spans' total.
func printSelfTimes(w io.Writer, spans []span) {
	var root time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			root += s.dur()
		}
	}
	layers := make([]*layerTime, 0)
	for _, lt := range selfTimes(spans) {
		layers = append(layers, lt)
	}
	sort.Slice(layers, func(i, j int) bool {
		if layers[i].Self != layers[j].Self {
			return layers[i].Self > layers[j].Self
		}
		return layers[i].Name < layers[j].Name
	})
	fmt.Fprintf(w, "# self time per layer (%d spans)\n", len(spans))
	fmt.Fprintf(w, "# %-18s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self_%")
	for _, lt := range layers {
		share := 0.0
		if root > 0 {
			share = 100 * float64(lt.Self) / float64(root)
		}
		fmt.Fprintf(w, "# %-18s %8d %12.3f %12.3f %7.2f\n",
			lt.Name, lt.Count, ms(lt.Total), ms(lt.Self), share)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
