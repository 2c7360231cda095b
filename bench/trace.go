package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. ID ties the spans of one operation
// together: a transaction's submit, queue and commit spans all carry its
// tx ID; block-level spans carry the height; transfers the transfer ID;
// queries their sequence number. Parent names the span that caused this
// one ("" for a root).
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool { return t != nil }

func (t *tracer) add(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns every span of one name, in the given unit.
func (t *tracer) durations(name string, unit time.Duration) samples {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out.add(float64(s.EndNS-s.StartNS) / float64(unit))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
