package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cbi/internal/telemetry/trace"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     string
	}{
		{"within the bound", lower, []float64{100, 101, 102}, []float64{103, 104, 105}, verdictSame},
		{"median worse than the bound", lower, []float64{100, 101, 102}, []float64{112, 113, 114}, verdictWorse},
		{"every trial better", lower, []float64{100, 101, 102}, []float64{90, 91, 92}, verdictBetter},
		{"spread wider than the bound", lower, []float64{90, 100, 115}, []float64{92, 101, 112}, verdictUnresolved},
		{"higher is better: drop past the bound", higher, []float64{1000, 1010, 1020}, []float64{880, 890, 900}, verdictWorse},
		{"higher is better: every trial better", higher, []float64{1000, 1010, 1020}, []float64{1100, 1110, 1120}, verdictBetter},
		{"wide spread does not excuse a regression", lower, []float64{90, 100, 115}, []float64{100, 120, 130}, verdictWorse},
	}
	for _, tc := range cases {
		if got, _ := judge(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// compareFixture is a result file of one workload: op_ms per trial, the
// judged per-layer overhead_sampled at one value in every trial, and an
// unjudged per-layer metric from the traced run.
func compareFixture(opMS []float64, overhead float64, failed int) *resultFile {
	var trials []map[string]float64
	for _, v := range opMS {
		trials = append(trials, map[string]float64{"op_ms": v, "overhead_sampled": overhead})
	}
	return &resultFile{
		Env: envelope{Seed: 1, Seconds: 10,
			Sizes: map[string]float64{"w.runs": 100}, Pools: map[string]string{"w.pool": "abc"}},
		Workloads: map[string]*workloadResult{
			"w": {Trials: trials, Layers: map[string]float64{"layer.x_us": 5, "overhead_sampled": overhead},
				Attempted: 1000, Failed: failed},
		},
	}
}

func TestCompareResults(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
		PerLayer: []metricSpec{
			{Name: "layer.x_us", Unit: "us", Better: "lower"},
			{Name: "overhead_sampled", Unit: "ratio", Better: "lower"},
			{Name: "read_p95_ms", Unit: "ms", Better: "lower"}, // judged, but this workload bypasses it
		},
	}
	base := compareFixture([]float64{100, 101, 102}, 1.10, 0)
	var out bytes.Buffer
	if code := compareResults(sp, base, compareFixture([]float64{101, 102, 103}, 1.11, 0), &out); code != 0 {
		t.Errorf("same-commit comparison exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictSame) || !strings.Contains(out.String(), "layer.x_us") {
		t.Errorf("report lacks the verdict or the per-layer row:\n%s", out.String())
	}
	if strings.Contains(out.String(), "read_p95_ms") {
		t.Errorf("a row for a metric neither file measured:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(sp, base, compareFixture([]float64{120, 121, 122}, 1.10, 0), &out); code == 0 {
		t.Errorf("a 20%% regression on a 10%% bound exited 0:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(sp, base, compareFixture([]float64{100, 101, 102}, 1.10, 3), &out); code == 0 {
		t.Errorf("a higher fail ratio exited 0:\n%s", out.String())
	}
	// A per-layer metric with a bound is judged like an end-to-end one.
	out.Reset()
	if code := compareResults(sp, base, compareFixture([]float64{100, 101, 102}, 1.21, 0), &out); code == 0 {
		t.Errorf("overhead_sampled 1.10 -> 1.21 on its %g bound exited 0:\n%s", layerBounds["overhead_sampled"], out.String())
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	a := compareFixture([]float64{1}, 1, 0).Env
	if err := sameInputs(a, a); err != nil {
		t.Errorf("identical envelopes refused: %v", err)
	}
	b := a
	b.Seed = 2
	if sameInputs(a, b) == nil {
		t.Error("different seeds accepted")
	}
	b = a
	b.Sizes = map[string]float64{"w.runs": 200}
	if sameInputs(a, b) == nil {
		t.Error("different sizes accepted")
	}
	b = a
	b.Pools = map[string]string{"w.pool": "def"}
	if sameInputs(a, b) == nil {
		t.Error("different pool hashes accepted")
	}
}

// TestSpanSelfTime: a parent's self time excludes what attached children
// cover, clipped to the parent, and ignores detached (asynchronous) ones.
func TestSpanSelfTime(t *testing.T) {
	t0 := time.Now()
	rec := func(id, parent, name string, startMS, durMS int) trace.Record {
		return trace.Record{SpanID: id, ParentID: parent, Name: name,
			Start:    t0.Add(time.Duration(startMS) * time.Millisecond),
			Duration: time.Duration(durMS) * time.Millisecond}
	}
	st := analyzeSpans([]trace.Record{
		rec("a", "", "fleet.run", 0, 100),
		rec("b", "a", "fleet.execute", 0, 60),
		rec("c", "a", "client.submit", 60, 30),
		rec("d", "c", "server.ingest", 65, 20),
		rec("e", "d", "server.decode", 66, 5),
		rec("f", "d", "server.fold", 80, 50), // detached: outlives its parent
	})
	want := map[string]time.Duration{
		"fleet.run":     10 * time.Millisecond,
		"fleet.execute": 60 * time.Millisecond,
		"client.submit": 10 * time.Millisecond,
		"server.ingest": 15 * time.Millisecond,
		"server.decode": 5 * time.Millisecond,
		"server.fold":   50 * time.Millisecond,
	}
	for name, d := range want {
		if st.self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, st.self[name], d)
		}
	}
	sum := st.self["fleet.run"] + st.self["fleet.execute"] + st.self["client.submit"] +
		st.self["server.ingest"] + st.self["server.decode"]
	if sum != st.total["fleet.run"] {
		t.Errorf("blocking-path self times sum to %v, root span is %v", sum, st.total["fleet.run"])
	}
}
