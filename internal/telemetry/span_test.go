package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanRecordsHistogramAndSummary(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("analyze.train")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("duration = %v", d)
	}
	r.StartSpan("analyze.train").End()
	r.StartSpan("fleet.run").End()

	sum := r.SpanSummary()
	if len(sum) != 2 {
		t.Fatalf("summary has %d entries, want 2", len(sum))
	}
	if sum[0].Name != "analyze.train" || sum[0].Count != 2 {
		t.Errorf("first span = %+v", sum[0])
	}
	if sum[1].Name != "fleet.run" || sum[1].Count != 1 {
		t.Errorf("second span = %+v", sum[1])
	}
	if sum[0].Total < sum[0].Max || sum[0].Min > sum[0].Max {
		t.Errorf("inconsistent aggregates: %+v", sum[0])
	}
	if got := r.Histogram(`span_seconds{span="analyze.train"}`, DefBuckets).Count(); got != 2 {
		t.Errorf("span histogram count = %d, want 2", got)
	}
	text := r.FormatSpanSummary()
	if !strings.Contains(text, "analyze.train") || !strings.Contains(text, "stage timings") {
		t.Errorf("summary text:\n%s", text)
	}
}

// seedSpan plants a deterministic aggregate, bypassing the wall clock.
func seedSpan(r *Registry, name string, count uint64, total, min, max time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[name] = &SpanStat{Name: name, Count: count, Total: total, Min: min, Max: max}
	r.spanSeq = append(r.spanSeq, name)
}

func TestFormatSpanSummaryOrderingAndRounding(t *testing.T) {
	r := NewRegistry()
	if r.FormatSpanSummary() != "" {
		t.Error("empty registry must format to empty string")
	}
	// First-start order, not alphabetical or by total.
	seedSpan(r, "zz.first", 3, 3001500*time.Nanosecond, 999500*time.Nanosecond, 1100*time.Microsecond)
	seedSpan(r, "aa.second", 1, 1234567*time.Nanosecond, 1234567*time.Nanosecond, 1234567*time.Nanosecond)
	seedSpan(r, "big.third", 2, 3*time.Second+1500*time.Microsecond, time.Second, 2*time.Second)

	text := r.FormatSpanSummary()
	if !strings.HasPrefix(text, "stage timings:\n") {
		t.Errorf("missing header:\n%s", text)
	}
	zi := strings.Index(text, "zz.first")
	ai := strings.Index(text, "aa.second")
	if zi < 0 || ai < 0 || zi > ai {
		t.Errorf("spans out of first-start order (zz at %d, aa at %d):\n%s", zi, ai, text)
	}
	// >= 1s totals round to milliseconds: big.third's 3.0015s -> "3.002s".
	if !strings.Contains(text, "3.002s total") {
		t.Errorf("second-scale rounding:\n%s", text)
	}
	// Millisecond-scale durations round to whole microseconds: zz.first's
	// total of 3001.5µs rounds up to "3.002ms", its avg of 1000.5µs to
	// "1.001ms"; its sub-millisecond min prints at 100ns precision.
	if !strings.Contains(text, "3.002ms total") {
		t.Errorf("millisecond-scale total rounding:\n%s", text)
	}
	if !strings.Contains(text, "avg 1.001ms") {
		t.Errorf("millisecond-scale rounding:\n%s", text)
	}
	if !strings.Contains(text, "min 999.5µs") {
		t.Errorf("sub-millisecond rounding:\n%s", text)
	}
	// Single-count spans omit the (avg, min, max) tail.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "aa.second") && strings.Contains(line, "avg") {
			t.Errorf("single-count span must not print avg: %q", line)
		}
	}
	// 1234567ns rounds to the nearest microsecond: "1.235ms".
	if !strings.Contains(text, "1.235ms") {
		t.Errorf("microsecond rounding:\n%s", text)
	}
	if !strings.Contains(text, "3×") || !strings.Contains(text, "1×") || !strings.Contains(text, "2×") {
		t.Errorf("counts missing:\n%s", text)
	}
}

func TestHealthTransitions(t *testing.T) {
	var h Health
	get := func() (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get(); code != 503 || !strings.Contains(body, "starting") {
		t.Errorf("starting: %d %q", code, body)
	}
	h.Set(HealthOK)
	if code, body := get(); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("ok: %d %q", code, body)
	}
	h.Set(HealthShuttingDown)
	if code, body := get(); code != 503 || !strings.Contains(body, "shutting-down") {
		t.Errorf("shutting down: %d %q", code, body)
	}
}

func TestRegistryHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}
