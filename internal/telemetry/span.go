package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Span is a lightweight timing span: StartSpan marks the beginning of a
// pipeline stage, End records its duration into the registry — a
// `span_seconds{span="<name>"}` histogram plus per-name aggregate stats
// for the human-readable summary.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// StartSpan begins a named span in the default registry.
func StartSpan(name string) *Span { return Default.StartSpan(name) }

// StartSpan begins a named span.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{reg: r, name: name, start: time.Now()}
}

// End records the span and returns its duration. Calling End more than
// once records the span more than once; don't.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	s.reg.Histogram(fmt.Sprintf("span_seconds{span=%q}", s.name), DefBuckets).Observe(d.Seconds())
	s.reg.mu.Lock()
	st, ok := s.reg.spans[s.name]
	if !ok {
		st = &SpanStat{Name: s.name, Min: d, Max: d}
		s.reg.spans[s.name] = st
		s.reg.spanSeq = append(s.reg.spanSeq, s.name)
	}
	st.Count++
	st.Total += d
	if d < st.Min {
		st.Min = d
	}
	if d > st.Max {
		st.Max = d
	}
	s.reg.mu.Unlock()
	return d
}

// SpanStat aggregates every End() of one span name.
type SpanStat struct {
	Name  string
	Count uint64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// SpanSummary returns per-span aggregates in first-start order.
func (r *Registry) SpanSummary() []SpanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanStat, 0, len(r.spanSeq))
	for _, name := range r.spanSeq {
		out = append(out, *r.spans[name])
	}
	return out
}

// FormatSpanSummary renders the stage-timing table printed at the end of
// an isolation run. Empty when no spans were recorded.
func (r *Registry) FormatSpanSummary() string {
	spans := r.SpanSummary()
	if len(spans) == 0 {
		return ""
	}
	wide := 0
	for _, s := range spans {
		if len(s.Name) > wide {
			wide = len(s.Name)
		}
	}
	var b strings.Builder
	b.WriteString("stage timings:\n")
	for _, s := range spans {
		avg := time.Duration(0)
		if s.Count > 0 {
			avg = s.Total / time.Duration(s.Count)
		}
		fmt.Fprintf(&b, "  %-*s %5d× %12s total", wide, s.Name, s.Count, roundDur(s.Total))
		if s.Count > 1 {
			fmt.Fprintf(&b, "  (avg %s, min %s, max %s)", roundDur(avg), roundDur(s.Min), roundDur(s.Max))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// roundDur trims durations to a readable precision.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
