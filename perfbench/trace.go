package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program. Spans of one
// operation share Op; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	filled bool
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open reserves a span ID for a parent whose end is not known yet;
// close fills it in.
func (t *tracer) open() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) close(id int, op int64, name, layer string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Op: op, Name: name, Layer: layer,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), filled: true}
}

// add records a finished span under parent.
func (t *tracer) add(op int64, parent int, name, layer string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Layer: layer, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), filled: true})
}

// finished returns the recorded spans, dropping reservations that were
// never closed (an operation that failed before its root ended).
func (t *tracer) finished() []span {
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.filled {
			out = append(out, s)
		}
	}
	return out
}

// selfTime sums, per layer, each span's duration minus the part its
// children cover. Children never overlap one another here: the
// benchmark calls layers one after the other within an operation.
func selfTime(spans []span) map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.dur() - child[s.ID]
	}
	return out
}

// durations collects the durations of spans named name, in µs.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writeSpans writes the header and the spans as JSON lines.
func writeSpans(path string, header map[string]string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]map[string]string{"header": header}); err != nil {
		f.Close()
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
