package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions. Start and End are nanoseconds since the trace
// began; Parent is the ID of the span that caused this one (0 for a root).
type Span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start"`
	End    int64             `json:"end"`
	Tags   map[string]string `json:"tags,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing and reads no clock, which is how the untraced replica runs.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	// stack is the implicit parent chain of the single-goroutine per-input
	// path; concurrent callers (the control-wire round tripper) pass explicit
	// parents through BeginUnder instead.
	stack []int
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span under the innermost open span and returns its ID.
func (t *Tracer) Begin(name string, tags ...string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(parent, name, tags)
	t.stack = append(t.stack, id)
	return id
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// Rename changes an open span's name: a lease is only known to have been a
// reset or a cold build once it returns.
func (t *Tracer) Rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// Tag adds a key/value to a span.
func (t *Tracer) Tag(id int, key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := &t.spans[id-1]
	if sp.Tags == nil {
		sp.Tags = make(map[string]string)
	}
	sp.Tags[key] = value
	t.mu.Unlock()
}

// Add records a finished span with explicit bounds and parent, for callers
// that learn of an interval after the fact (epoch summaries) or run
// concurrently (wire round trips).
func (t *Tracer) Add(parent int, name string, start, end time.Time, tags ...string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.open(parent, name, tags)
	sp := &t.spans[id-1]
	sp.Start = start.Sub(t.t0).Nanoseconds()
	sp.End = end.Sub(t.t0).Nanoseconds()
	return id
}

func (t *Tracer) open(parent int, name string, tags []string) int {
	sp := Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()}
	if len(tags) > 0 {
		sp.Tags = make(map[string]string, len(tags)/2)
		for i := 0; i+1 < len(tags); i += 2 {
			sp.Tags[tags[i]] = tags[i+1]
		}
	}
	t.spans = append(t.spans, sp)
	return sp.ID
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap one another
// and may stick out of the parent; only the union of their intervals, clipped
// to the parent, is subtracted.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// spanStats aggregates spans by name.
type spanStats struct {
	count int
	total int64 // Σ duration, ns
	self  int64 // Σ self time, ns
	durs  []float64
}

func aggregate(spans []Span) map[string]*spanStats {
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.Dur()
		st.self += self[s.ID]
		st.durs = append(st.durs, float64(s.Dur()))
	}
	return out
}

// layerOf is the module a span name belongs to: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
