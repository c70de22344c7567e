package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer: the layer is the
// part of the name before the first dot (the module name).
type span struct {
	Name       string
	Start, End time.Duration // offsets from the tracer's origin
	Parent     int           // index of the causing span, -1 for a root
	Lane       int           // goroutine lane (0 = the harness's main goroutine)
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its id, -1 when tracing is off.
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Lane: lane})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span on the main lane and returns its wall time —
// the one clock both the metric and the span read.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// spanTotals is one span name's aggregate: how often it ran, its summed
// duration, and its self time — duration minus the part of each interval
// that child spans cover.
type spanTotals struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (t *tracer) totals() []spanTotals {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanTotals)
	var order []string
	for id, s := range spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanTotals{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += dur
		st.Self += dur - covered(s, children[id])
	}
	out := make([]spanTotals, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to parent —
// concurrent children (the saturation clients) overlap, so durations cannot
// simply be summed.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var sum time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cur {
			lo = cur
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// printTotals writes the per-span table of the traced run.
func (t *tracer) printTotals(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range t.totals() {
		fmt.Fprintf(w, "%-34s %8d %12.2f %12.2f\n", st.Name, st.Count,
			float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
}

// writeChrome dumps the spans as Chrome-trace JSON ("X" complete events;
// load in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": id, "parent": s.Parent, "workload": t.workload},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
