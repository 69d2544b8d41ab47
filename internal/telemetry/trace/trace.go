// Package trace provides hierarchical distributed tracing for the
// collection pipeline: one trace follows a single deployed run from the
// fleet harness through HTTP submission (with retries) into the
// collector's decode and fold stages.
//
// The model is deliberately small — a trace is a tree of timed spans
// sharing one 128-bit trace ID — but it crosses process boundaries: the
// client forwards its span context in an `X-CBI-Trace` header and the
// server continues the same trace, so a single export shows
// fleet.run → client.submit → server.decode → server.fold end to end.
//
// Finished spans accumulate in a Collector and export to Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing, see
// export.go) or JSONL.
//
// All span methods are safe on a nil *Span and all collector methods on
// a nil *Collector; call sites stay branch-free when tracing is off and
// pay nothing but the nil checks.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cbi/internal/rng"
)

// Header is the HTTP header carrying trace context across the wire. Its
// value is "<trace-id>-<span-id>": 32 lowercase hex chars, a dash, 16
// lowercase hex chars (a simplified W3C traceparent).
const Header = "X-CBI-Trace"

// idRand is a process-local PRNG for span IDs, seeded once from
// crypto/rand so concurrent collectors never collide, without paying a
// syscall per span.
var idRand = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rng.New(func() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}())}

func randHex(nbytes int) string {
	b := make([]byte, nbytes)
	idRand.Lock()
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], idRand.Uint64())
	}
	if rem := len(b) % 8; rem != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], idRand.Uint64())
		copy(b[len(b)-rem:], w[:rem])
	}
	idRand.Unlock()
	return hex.EncodeToString(b)
}

// NewTraceID returns a fresh 128-bit trace ID in lowercase hex.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a fresh 64-bit span ID in lowercase hex.
func NewSpanID() string { return randHex(8) }

// Record is one finished span as stored by the Collector.
type Record struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Span is a live (unfinished) span. Create roots with
// Collector.StartSpan or Collector.ContinueSpan, children with
// StartChild, and call End exactly once.
type Span struct {
	col      *Collector
	traceID  string
	spanID   string
	parentID string
	name     string
	start    time.Time
	attrs    map[string]string
}

// Collector accumulates finished spans in memory for export at process
// exit. It is safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	records []Record
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// StartSpan opens a root span in a brand-new trace. Returns nil when the
// collector is nil (tracing disabled).
func (c *Collector) StartSpan(name string) *Span {
	if c == nil {
		return nil
	}
	return &Span{
		col:     c,
		traceID: NewTraceID(),
		spanID:  NewSpanID(),
		name:    name,
		start:   time.Now(),
	}
}

// ContinueSpan opens a span that continues the trace described by an
// incoming Header value: same trace ID, parented to the remote span.
// A missing or malformed header starts a fresh trace instead, so a
// collector behind a mixed fleet still records untraced ingests.
func (c *Collector) ContinueSpan(name, header string) *Span {
	if c == nil {
		return nil
	}
	sp := c.StartSpan(name)
	if traceID, spanID, ok := ParseHeader(header); ok {
		sp.traceID = traceID
		sp.parentID = spanID
	}
	return sp
}

// Len returns the number of finished spans recorded so far.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Records returns a snapshot of the finished spans in end order.
func (c *Collector) Records() []Record {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.records...)
}

// StartChild opens a child span in the same trace. Nil-safe: a nil
// receiver returns nil, so untraced paths thread through unchanged.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		col:      s.col,
		traceID:  s.traceID,
		spanID:   NewSpanID(),
		parentID: s.spanID,
		name:     name,
		start:    time.Now(),
	}
}

// SetAttr attaches a key/value attribute (no-op on nil).
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// HeaderValue renders the span context for the X-CBI-Trace header
// ("" on nil, which callers must treat as "do not set the header").
func (s *Span) HeaderValue() string {
	if s == nil {
		return ""
	}
	return s.traceID + "-" + s.spanID
}

// ParseHeader splits an X-CBI-Trace value into trace and span IDs.
func ParseHeader(v string) (traceID, spanID string, ok bool) {
	i := strings.IndexByte(v, '-')
	if i < 0 {
		return "", "", false
	}
	traceID, spanID = v[:i], v[i+1:]
	if len(traceID) != 32 || len(spanID) != 16 || !isHex(traceID) || !isHex(spanID) {
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

// End finishes the span and records it in its collector (no-op on nil).
// Calling End twice records the span twice; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := Record{
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    s.attrs,
	}
	s.col.mu.Lock()
	s.col.records = append(s.col.records, rec)
	s.col.mu.Unlock()
}

// ----------------------------------------------------------------------------
// Context plumbing

type ctxKey struct{}

// NewContext returns ctx carrying sp. A nil span yields ctx unchanged,
// so FromContext on the result stays nil — tracing stays off end to end.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
