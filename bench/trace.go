package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded
// by the benchmark around the call (the program under test records
// nothing for it). Parent is the index of the enclosing span, -1 for a
// root; spans of one operation share Op.
type span struct {
	Name       string
	Start, End time.Duration // since tracer.t0
	Parent     int
	Op         int64
	Lane       int // client goroutine, the Chrome-trace thread id
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one pointer comparison per
// call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, op int64, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op, Lane: lane})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMs returns the durations, in milliseconds, of every closed
// span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeChromeTrace dumps the spans as Chrome trace-event JSON
// ("X" complete events, microsecond timestamps), loadable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
