package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps spans recorded in the benchmark's own code, around its
// calls into each layer, and writes them as a Chrome trace (loadable in
// chrome://tracing or Perfetto) when the run ends. Spans of one request
// share its id. A nil tracer records nothing.
type tracer struct {
	start  time.Time
	mu     sync.Mutex
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type span struct {
	name  string
	tid   int64
	begin time.Time
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span on track tid.
func (t *tracer) begin(name string, tid int64) *span {
	if t == nil {
		return nil
	}
	return &span{name: name, tid: tid, begin: time.Now()}
}

func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	t.add(s.name, s.tid, s.begin, time.Now(), nil)
}

// add records a complete span [from, to].
func (t *tracer) add(name string, tid int64, from, to time.Time, args map[string]any) {
	if t == nil {
		return
	}
	ev := traceEvent{
		Name: name, Ph: "X", Pid: 1, Tid: tid,
		Ts:   float64(from.Sub(t.start).Nanoseconds()) / 1e3,
		Dur:  float64(to.Sub(from).Nanoseconds()) / 1e3,
		Args: args,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// write stores the trace as {"traceEvents": [...]} at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
