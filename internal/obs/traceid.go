package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// W3C trace-context support: every Tracer owns a 16-byte trace-id and
// every Span an 8-byte span-id, both lazily assigned so untraced runs pay
// nothing. Traceparent/ParseTraceparent implement the `traceparent`
// header (https://www.w3.org/TR/trace-context/, version 00), which is how
// the ShardClient hands its trace identity to fdxd and how fdxd links its
// server spans back to the caller.

var (
	spanBaseOnce sync.Once
	spanBase     uint64
	spanSeq      atomic.Uint64
)

// NewTraceID returns a 32-char lowercase-hex W3C trace-id, random and
// non-zero.
func NewTraceID() string {
	var b [16]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back to
			// the span-id generator rather than panic in telemetry code.
			binary.BigEndian.PutUint64(b[:8], nextSpanWord())
			binary.BigEndian.PutUint64(b[8:], nextSpanWord())
		}
		if b != [16]byte{} {
			return hex.EncodeToString(b[:])
		}
	}
}

// NewSpanID returns a 16-char lowercase-hex W3C span-id. IDs mix a
// process-wide random base with an atomic counter, so generation is one
// atomic add — cheap enough to assign on every traced request.
func NewSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], nextSpanWord())
	return hex.EncodeToString(b[:])
}

func nextSpanWord() uint64 {
	spanBaseOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			spanBase = binary.BigEndian.Uint64(b[:])
		} else {
			spanBase = uint64(time.Now().UnixNano())
		}
	})
	for {
		w := spanBase ^ (spanSeq.Add(1) * 0x9e3779b97f4a7c15)
		if w != 0 {
			return w
		}
	}
}

// Traceparent formats a version-00 traceparent header value with the
// sampled flag set.
func Traceparent(traceID, spanID string) string {
	return fmt.Sprintf("00-%s-%s-01", traceID, spanID)
}

// ParseTraceparent splits a traceparent header into its trace-id and
// parent span-id. It accepts any version byte (per spec, unknown versions
// are parsed as version 00) and rejects malformed or all-zero IDs.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !isHex(h[:2]) || !isHex(traceID) || !isHex(spanID) || !isHex(h[53:55]) {
		return "", "", false
	}
	if allZero(traceID) || allZero(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// TraceID returns the tracer's W3C trace-id, assigning a random one on
// first use. Nil tracers return "".
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traceID == "" {
		t.traceID = NewTraceID()
	}
	return t.traceID
}

// SpanID returns the span's W3C span-id, assigning one on first use.
// Nil and detached spans return "".
func (s *Span) SpanID() string {
	if s == nil || s.tracer == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id == "" {
		s.id = NewSpanID()
	}
	return s.id
}

// TraceID returns the owning tracer's trace-id ("" for nil or detached
// spans).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tracer.TraceID()
}

// AttachRemote grafts a span observed in another process (e.g. echoed
// back by fdxd in an X-Fdx-Trace response header) under s as an
// already-ended child covering [start, start+dur]. The remote process's
// own span-id, when known, should be passed via id so the merged trace
// keeps stable identities; "" assigns a fresh local id. The returned span
// is ended — callers must not End it again (harmless if they do).
func (s *Span) AttachRemote(name, id string, start time.Time, dur time.Duration, attrs ...Attr) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	if dur < 0 {
		dur = 0
	}
	c := &Span{
		tracer: s.tracer,
		parent: s,
		name:   name,
		id:     id,
		start:  start,
		end:    start.Add(dur),
		ended:  true,
		remote: true,
		attrs:  append([]Attr(nil), attrs...),
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}
