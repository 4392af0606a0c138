package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Spans of one item (a simulation, a pass, a
// request) share Item; Parent is the span that caused this one (-1 at the
// root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Item    string `json:"item"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing, so the measured code is the same
// with and without tracing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open maps an item to its innermost unfinished span: the calls of one
	// item nest strictly, so that span is the cause of the next one.
	open map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[string]int{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its id, or -1 when tracing is off.
func (t *tracer) begin(item, layer, name string) int {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.open[item]
	if !ok {
		parent = -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Item: item, Layer: layer, Name: name,
		StartNS: time.Since(t.epoch).Nanoseconds()})
	t.open[item] = id
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = now
	if s.Parent < 0 {
		delete(t.open, s.Item)
	} else {
		t.open[s.Item] = s.Parent
	}
}

// durations returns the length in seconds of every finished span with the
// given layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.EndNS > 0 {
			out = append(out, s.seconds())
		}
	}
	return out
}

// byItem returns, per item, the finished span with the given layer and name.
func (t *tracer) byItem(layer, name string) map[string]span {
	out := map[string]span{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.EndNS > 0 {
			out[s.Item] = s
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
