package telemetry

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("requests_total") != c {
		t.Error("Counter must return the same instance per name")
	}
	g := r.Gauge("queue_depth")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5})
	// Boundary values land in the bucket whose upper bound they equal
	// (inclusive le), below-first goes to the first bucket, above-last to
	// +Inf.
	for _, v := range []float64{0.5, 1, 2, 2.5, 5, 7} {
		h.Observe(v)
	}
	cum := h.CumulativeCounts()
	want := []uint64{2, 3, 5, 6} // le=1, le=2, le=5, +Inf
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 18 {
		t.Errorf("sum = %g, want 18", h.Sum())
	}
}

// TestHistogramQuantile pins the one-bucket contract: Quantile returns
// the upper bound of the bucket holding rank ceil(q·count).
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 5}
	cases := []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single bucket", []float64{1.5, 1.5, 1.9}, 0.99, 2},
		{"single bucket p0", []float64{1.5}, 0, 2},
		{"exact boundary", []float64{1, 2, 5}, 0.5, 2},
		{"exact boundary rank", []float64{1, 1, 5, 5}, 0.5, 1},
		{"rank past boundary", []float64{1, 1, 5, 5}, 0.51, 5},
		{"+Inf overflow floors at last bound", []float64{0.5, 9, 9, 9}, 0.5, 5},
		{"all overflow", []float64{7, 8}, 0.99, 5},
		{"q above one", []float64{0.5}, 2, 1},
	}
	for _, c := range cases {
		h := NewRegistry().Histogram("q", bounds)
		for _, v := range c.obs {
			h.Observe(v)
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
	noBounds := NewRegistry().Histogram("inf", nil)
	noBounds.Observe(3)
	if got := noBounds.Quantile(0.5); !math.IsInf(got, 1) {
		t.Errorf("bucketless histogram: Quantile = %g, want +Inf", got)
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted buckets must panic")
		}
	}()
	NewRegistry().Histogram("bad", []float64{1, 1, 2})
}

func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_total").Add(42)
	r.Counter(`rejected_total{reason="decode"}`).Add(3)
	r.Counter(`rejected_total{reason="fold"}`)
	r.Gauge("crash_ratio").Set(0.25)
	h := r.Histogram("decode_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// The build-info gauge is present in every registry with
	// toolchain-dependent labels; strip it before the golden compare.
	var kept []string
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if line == "" || strings.Contains(line, "cbi_build_info") {
			continue
		}
		kept = append(kept, line)
	}
	got := strings.Join(kept, "")
	want := `# TYPE crash_ratio gauge
crash_ratio 0.25
# TYPE decode_seconds histogram
decode_seconds_bucket{le="0.001"} 1
decode_seconds_bucket{le="0.01"} 2
decode_seconds_bucket{le="+Inf"} 3
decode_seconds_sum 5.0025
decode_seconds_count 3
# TYPE ingest_total counter
ingest_total 42
# TYPE rejected_total counter
rejected_total{reason="decode"} 3
rejected_total{reason="fold"} 0
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestBuildInfoGaugePresent(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "# TYPE cbi_build_info gauge") {
		t.Errorf("missing build-info TYPE line:\n%s", text)
	}
	re := regexp.MustCompile(`cbi_build_info\{version="[^"]+",go_version="[^"]+"\} 1\n`)
	if !re.MatchString(text) {
		t.Errorf("missing build-info sample:\n%s", text)
	}
	if BuildVersion() == "" {
		t.Error("BuildVersion must not be empty")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name must panic")
		}
	}()
	r.Gauge("x_total")
}

func TestFamilyKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter(`y_total{a="1"}`)
	defer func() {
		if recover() == nil {
			t.Error("conflicting family kind must panic")
		}
	}()
	r.Gauge(`y_total{a="2"}`)
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "9abc", "with space", "trailing{", `x{a="1"`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must panic", name)
				}
			}()
			NewRegistry().Counter(name)
		}()
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total")
			h := r.Histogram("work_seconds", DefBuckets)
			g := r.Gauge("level")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("work_seconds", DefBuckets).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("level").Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
}
