package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by this program around
// the call. Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one run in memory; write saves them when the
// run ends. It is safe for concurrent use by the ingest clients.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span named name under parent.
func (t *tracer) timed(name string, parent int, f func()) {
	id := t.start(name, parent)
	f()
	t.end(id)
}

// layerTime is one span name's time within one root: self time is the
// spans' own durations minus their direct children's; total includes
// the children.
type layerTime struct{ self, total float64 }

// byRoot returns, for every root span called root in start order, the
// seconds each descendant span name took inside it.
func (t *tracer) byRoot(root string) []map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += dur(s)
		}
	}
	rootOf := make([]int, len(t.spans)+1)
	index := map[int]int{}
	var out []map[string]layerTime
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
			if s.Name == root {
				index[s.ID] = len(out)
				out = append(out, map[string]layerTime{})
			}
			continue
		}
		rootOf[s.ID] = rootOf[s.Parent] // parents start before children
		i, ok := index[rootOf[s.ID]]
		if !ok {
			continue
		}
		lt := out[i][s.Name]
		lt.self += dur(s) - childSum[s.ID]
		lt.total += dur(s)
		out[i][s.Name] = lt
	}
	return out
}

// rootDurations returns the durations in seconds of every root span
// called root.
func (t *tracer) rootDurations(root string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			out = append(out, dur(s))
		}
	}
	return out
}

func dur(s span) float64 { return float64(s.End-s.Start) / 1e9 }

// medianSelf is the median, over the roots that called a layer, of its
// self time in seconds there (0 when no root called it).
func medianSelf(roots []map[string]layerTime, name string) float64 {
	return medianOf(roots, name, func(lt layerTime) float64 { return lt.self })
}

// medianTotal is medianSelf with the layer's children included.
func medianTotal(roots []map[string]layerTime, name string) float64 {
	return medianOf(roots, name, func(lt layerTime) float64 { return lt.total })
}

func medianOf(roots []map[string]layerTime, name string, f func(layerTime) float64) float64 {
	var xs []float64
	for _, r := range roots {
		if lt, ok := r[name]; ok {
			xs = append(xs, f(lt))
		}
	}
	return median(xs)
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.run+".json"), b, 0o644)
}
