package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans in memory from the benchmark's own code, around its
// calls into each layer. A nil *tracer records nothing, so untraced runs pay
// one pointer check per span.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

// span is one timed call: parent is the enclosing span's id (0 = root) and
// group ties together the spans of one job or request.
type span struct {
	id, parent, group int64
	name              string
	start, end        time.Time
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, group int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, group: group, name: name, start: time.Now()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records an already-timed span and returns its id.
func (t *tracer) add(name string, parent, group int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, group: group, name: name, start: start, end: end})
	return id
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs since the tracer started
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every closed span as Chrome trace-event JSON, one lane
// (tid) per job or request.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.group,
			TS:   float64(s.start.Sub(t.base).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
