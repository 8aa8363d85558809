package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed interval around a call the benchmark makes into a
// layer (or around a step of its own). Spans of one op share the op's
// span as their ancestor through Parent.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one pointer check per span site.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]Span, 0, 1024)} }

// begin opens a span under parent (0 for a root) and returns its id.
func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return 0
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, Span{ID: id, Parent: parent, Name: name, StartNs: time.Since(tr.t0).Nanoseconds()})
	return id
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id == 0 {
		return
	}
	tr.spans[id-1].EndNs = time.Since(tr.t0).Nanoseconds()
}

// selfNs returns every span's self time: its duration minus the time its
// direct children cover. Children of one span never overlap here (the
// benchmark makes its layer calls one after another), so the covered time
// is the children's summed duration.
func selfNs(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// selfByName returns the self time of every span with the given name, in
// nanoseconds.
func selfByName(spans []Span, name string) []float64 {
	self := selfNs(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
