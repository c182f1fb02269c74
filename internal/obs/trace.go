package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects a forest of spans for one or more traced operations.
// It is safe for concurrent use; a nil *Tracer is a valid no-op sink
// (StartSpan returns nil and all downstream span calls vanish).
//
// A Tracer is cheap to create and intended to be scoped to a run: attach
// a fresh one per Discover call or stream session, then export with
// WriteJSON or Summary.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	roots   []*Span
	traceID string // lazily assigned W3C trace-id; see TraceID
	mem     atomic.Bool
}

// New returns an empty tracer whose trace clock starts now.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// SetMemSampling toggles allocation accounting: when on, every span
// started afterwards records the runtime.MemStats.TotalAlloc delta over
// its lifetime. Sampling calls runtime.ReadMemStats twice per span
// (a stop-the-world operation), so leave it off unless allocation
// attribution is wanted.
func (t *Tracer) SetMemSampling(on bool) {
	if t == nil {
		return
	}
	t.mem.Store(on)
}

// StartSpan opens a new root span. The returned span must be closed with
// End; nil receivers return a nil span on which every method is a no-op.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, name: name, start: time.Now()}
	if t.mem.Load() {
		s.mem = true
		s.allocStart = totalAlloc()
	}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns a snapshot of the root spans in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.roots))
	copy(out, t.roots)
	return out
}

// Find returns every span named name, in pre-order (parents before
// children, siblings in start order).
func (t *Tracer) Find(name string) []*Span {
	var out []*Span
	for _, s := range t.Spans() {
		if s.Name() == name {
			out = append(out, s)
		}
	}
	return out
}

// Spans returns the whole forest flattened in pre-order.
func (t *Tracer) Spans() []*Span {
	var out []*Span
	for _, r := range t.Roots() {
		r.walk(func(s *Span) { out = append(out, s) })
	}
	return out
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed region of a trace. Spans nest via Child and are
// closed with End (idempotent). All methods are safe on a nil receiver
// and safe for concurrent use, though a span is normally driven by the
// single goroutine that created it.
type Span struct {
	mu         sync.Mutex
	tracer     *Tracer // nil for detached metrics-only spans
	parent     *Span
	name       string
	id         string // lazily assigned W3C span-id; see SpanID
	start, end time.Time
	ended      bool
	remote     bool // attached from another process via AttachRemote
	track      int
	attrs      []Attr
	children   []*Span
	hist       *Histogram // observed (seconds) on End, for StartStage
	mem        bool
	allocStart uint64
	allocEnd   uint64
}

// Child opens a sub-span. Children of nil or detached spans are nil.
func (s *Span) Child(name string) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, parent: s, name: name, start: time.Now()}
	if s.tracer.mem.Load() {
		c.mem = true
		c.allocStart = totalAlloc()
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, recording its end time, allocation delta, and —
// for stage spans — its duration in the bound latency histogram. End is
// idempotent: only the first call takes effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	if s.mem {
		s.allocEnd = totalAlloc()
	}
	d := s.end.Sub(s.start)
	hist := s.hist
	s.mu.Unlock()
	hist.Observe(d.Seconds())
}

// Attr annotates the span; shown in trace JSON args and the summary tree.
func (s *Span) Attr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetTrack assigns the span (and, by inheritance, its children) to a
// numbered track — rendered as a separate thread lane in trace viewers.
// Useful to fan parallel workers out visually; 0 means "inherit".
func (s *Span) SetTrack(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.track = n
	s.mu.Unlock()
}

// Name returns the span name ("" for nil spans).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Parent returns the enclosing span, nil for roots.
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Duration returns end−start for ended spans and the running elapsed
// time otherwise (0 for nil spans).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.end.Sub(s.start)
	}
	return time.Since(s.start)
}

// AllocDelta returns the bytes allocated during the span and whether
// allocation sampling was on.
func (s *Span) AllocDelta() (uint64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.mem || !s.ended {
		return 0, s.mem
	}
	return s.allocEnd - s.allocStart, true
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Attr, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Children returns a snapshot of the direct sub-spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// walk visits s and its descendants pre-order.
func (s *Span) walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children() {
		c.walk(fn)
	}
}

// effectiveTrack resolves the viewer lane: the span's own track if set,
// else the nearest ancestor's, else 1.
func (s *Span) effectiveTrack() int {
	for cur := s; cur != nil; cur = cur.Parent() {
		cur.mu.Lock()
		tr := cur.track
		cur.mu.Unlock()
		if tr != 0 {
			return tr
		}
	}
	return 1
}

// StageTiming is the aggregate duration of one named stage: all direct
// children of a root span sharing a name, merged.
type StageTiming struct {
	Stage    string
	Count    int
	Duration time.Duration
}

// StageTimings aggregates the direct children of s by name, in
// first-start order. For a pipeline root span this yields one entry per
// stage (transform, covariance, fit, ...).
func (s *Span) StageTimings() []StageTiming {
	if s == nil {
		return nil
	}
	var (
		out   []StageTiming
		index = map[string]int{}
	)
	for _, c := range s.Children() {
		i, ok := index[c.Name()]
		if !ok {
			i = len(out)
			index[c.Name()] = i
			out = append(out, StageTiming{Stage: c.Name()})
		}
		out[i].Count++
		out[i].Duration += c.Duration()
	}
	return out
}

// totalAlloc samples cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
