package quality

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cbi/internal/telemetry"
)

// sinkEvent records one Publish call.
type sinkEvent struct {
	Event string
	Kind  string
}

type testSink struct{ events []sinkEvent }

func (s *testSink) Publish(event string, v any) {
	kind := ""
	if a, ok := v.(Anomaly); ok {
		kind = a.Kind
	}
	s.events = append(s.events, sinkEvent{event, kind})
}

func newTestEngine(sink *testSink) *Engine {
	e := New(Config{})
	e.halfLife = 100 // ~instant decay is fine; rules are ratio-based
	e.minEvents = 10
	// Rate/stall tests feed synthetic constant-total reports that a real
	// density check would rightly flag; push it out of reach.
	e.minCheckReports = 1 << 30
	e.Bind(telemetry.NewRegistry())
	if sink != nil {
		e.Events = sink
	}
	return e
}

func hasAnomaly(e *Engine, kind string) bool {
	for _, a := range e.ActiveAnomalies() {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

func acceptN(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.ObserveAccepted(uint64(i), 12, 100, 3, 3, false)
	}
}

func TestRejectSurgeAndRecovery(t *testing.T) {
	sink := &testSink{}
	e := newTestEngine(sink)
	acceptN(e, 100)
	e.Tick() // healthy baseline
	if n := len(e.ActiveAnomalies()); n != 0 {
		t.Fatalf("%d anomalies on a healthy window", n)
	}
	for i := 0; i < 80; i++ {
		e.ObserveRejected(ReasonDecode, []byte("junk"))
	}
	acceptN(e, 20)
	e.Tick() // 80/(80+20) = 0.8 > 0.5
	if !hasAnomaly(e, "reject-surge") {
		t.Fatalf("no reject-surge; active: %+v", e.ActiveAnomalies())
	}
	// recoverTicks (2) clean windows retire it with an event.
	acceptN(e, 100)
	e.Tick()
	if !hasAnomaly(e, "reject-surge") {
		t.Fatal("surge retired after one clean tick, want two")
	}
	acceptN(e, 100)
	e.Tick()
	if hasAnomaly(e, "reject-surge") {
		t.Fatal("surge still active after two clean ticks")
	}
	var kinds []string
	for _, ev := range sink.events {
		if ev.Kind == "reject-surge" {
			kinds = append(kinds, ev.Event)
		}
	}
	if want := []string{"anomaly", "recovered"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("surge event sequence %v, want %v", kinds, want)
	}
}

func TestRateSpike(t *testing.T) {
	e := newTestEngine(nil)
	// A small steady rejection trickle sets the baseline...
	for tick := 0; tick < 3; tick++ {
		acceptN(e, 100)
		e.ObserveRejected(ReasonDecode, nil)
		e.Tick()
	}
	if len(e.ActiveAnomalies()) != 0 {
		t.Fatalf("anomalies on trickle: %+v", e.ActiveAnomalies())
	}
	// ...and a 500-event burst outruns it by far more than spikeFactor.
	acceptN(e, 100)
	for i := 0; i < 500; i++ {
		e.ObserveRejected(ReasonDecode, nil)
	}
	e.Tick()
	if !hasAnomaly(e, "rate-spike") {
		t.Fatalf("no rate-spike; active: %+v", e.ActiveAnomalies())
	}
	found := false
	for _, a := range e.ActiveAnomalies() {
		if a.Kind == "rate-spike" && a.Target == "reject:decode" {
			found = true
		}
	}
	if !found {
		t.Errorf("spike target wrong: %+v", e.ActiveAnomalies())
	}
}

func TestAcceptTrafficIsNeverASpike(t *testing.T) {
	e := newTestEngine(nil)
	acceptN(e, 10)
	e.Tick()
	acceptN(e, 10_000) // load, not an anomaly
	e.Tick()
	if len(e.ActiveAnomalies()) != 0 {
		t.Errorf("accept burst flagged: %+v", e.ActiveAnomalies())
	}
}

func TestIngestStallAndRecovery(t *testing.T) {
	e := newTestEngine(nil)
	for tick := 0; tick < 3; tick++ {
		acceptN(e, 100)
		e.Tick()
	}
	// stallTicks (3) empty windows: no stall before, stall after.
	e.Tick()
	e.Tick()
	if hasAnomaly(e, "ingest-stall") {
		t.Fatal("stall flagged too early")
	}
	e.Tick()
	if !hasAnomaly(e, "ingest-stall") {
		t.Fatalf("no stall after 3 empty windows: %+v", e.ActiveAnomalies())
	}
	// The stall must persist while silence continues, even though the
	// EWMA baseline has long since decayed (the frozen-baseline rule).
	for i := 0; i < 10; i++ {
		e.Tick()
	}
	if !hasAnomaly(e, "ingest-stall") {
		t.Fatal("stall self-recovered during continuing silence")
	}
	// Traffic resumes: recovered after recoverTicks clean windows.
	acceptN(e, 100)
	e.Tick()
	acceptN(e, 100)
	e.Tick()
	if hasAnomaly(e, "ingest-stall") {
		t.Fatal("stall still active after traffic resumed")
	}
}

func TestDensityDriftAnomaly(t *testing.T) {
	e := New(Config{})
	e.minCheckReports = 50
	e.Bind(telemetry.NewRegistry())
	for i := 0; i < 100; i++ {
		e.ObserveAccepted(uint64(i), 12, 100, 20, 20, false) // constant totals
	}
	e.Tick()
	if !hasAnomaly(e, "density-drift") {
		t.Fatalf("no density-drift on a degenerate cohort: %+v", e.ActiveAnomalies())
	}
}

func TestCrashedRunsExcludedFromDensityCheck(t *testing.T) {
	e := New(Config{})
	e.minCheckReports = 50
	e.Bind(telemetry.NewRegistry())
	for i := 0; i < 100; i++ {
		e.ObserveAccepted(uint64(i), 12, 100, 20, 20, true)
	}
	if v := e.TakeSnapshot().Sampling; v.Reports != 0 {
		t.Errorf("crashed runs entered the density check: %d reports", v.Reports)
	}
}

func TestSnapshotTotals(t *testing.T) {
	e := newTestEngine(nil)
	acceptN(e, 7)
	e.ObserveRejected(ReasonDecode, []byte("xx"))
	e.ObserveRejected(ReasonMethod, nil)
	e.ObserveQuarantined(99, 42)
	snap := e.TakeSnapshot()
	if snap.Accepted != 7 {
		t.Errorf("accepted = %d", snap.Accepted)
	}
	if snap.RejectedTotal != 2 || snap.Rejected["decode"] != 1 || snap.Rejected["method"] != 1 {
		t.Errorf("rejected = %d %v", snap.RejectedTotal, snap.Rejected)
	}
	if snap.Quarantined != 1 {
		t.Errorf("quarantined = %d", snap.Quarantined)
	}
	if _, ok := snap.Rejected["quarantine"]; ok {
		t.Error("quarantine listed under rejected: those reports were folded")
	}
	if snap.ReportBytes.Count != 7 || snap.ReportNonzeros.Count != 7 {
		t.Errorf("shape counts: bytes %d nonzeros %d", snap.ReportBytes.Count, snap.ReportNonzeros.Count)
	}
	bad, total := e.BadReports()
	if total != 2 || len(bad) != 2 { // decode payload + quarantine
		t.Errorf("bad reports: %d entries, %d total", len(bad), total)
	}
	if bad[0].Reason != "quarantine" || bad[0].RunID != 99 || bad[0].Size != 42 {
		t.Errorf("newest forensic entry: %+v", bad[0])
	}
}

// TestSamplingCountsEveryReport floods one tick with accepted reports:
// every completed run must reach the density check, and crashed runs
// none, however many arrive between ticks.
func TestSamplingCountsEveryReport(t *testing.T) {
	e := newTestEngine(nil)
	const n = 20_000
	crashed := 0
	for i := 0; i < n; i++ {
		c := i%7 == 0
		if c {
			crashed++
		}
		e.ObserveAccepted(uint64(i), 12, 50, 3, uint64(i%5), c)
	}
	snap := e.TakeSnapshot()
	if want := uint64(n - crashed); snap.Sampling.Reports != want {
		t.Errorf("sampling saw %d reports, want %d non-crashed", snap.Sampling.Reports, want)
	}
	if snap.Accepted != n || snap.ReportBytes.Count != n || snap.ReportBytes.Mean != 50 {
		t.Errorf("exact aggregates: accepted %d bytes count %d mean %v",
			snap.Accepted, snap.ReportBytes.Count, snap.ReportBytes.Mean)
	}
}

// TestSnapshotQuantilesReadCollectorHistograms checks the p50/p99
// columns come from the registry's collect_report_* histograms, not
// from the engine's own observations.
func TestSnapshotQuantilesReadCollectorHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	bytesH := reg.Histogram("collect_report_bytes", telemetry.SizeBuckets)
	nzH := reg.Histogram("collect_report_nonzeros", telemetry.NonzeroBuckets)
	e := New(Config{})
	e.Bind(reg)
	for i := 0; i < 100; i++ {
		b := 100.0 // le=256
		if i == 99 {
			b = 5000 // le=16384: the p99 rank
		}
		bytesH.Observe(b)
		nzH.Observe(20) // le=32
		e.ObserveAccepted(uint64(i), 12, int(b), 20, 3, false)
	}
	snap := e.TakeSnapshot()
	if snap.ReportBytes.P50 != 256 || snap.ReportBytes.P99 != 256 {
		t.Errorf("bytes p50/p99 = %v/%v, want 256/256", snap.ReportBytes.P50, snap.ReportBytes.P99)
	}
	if snap.ReportNonzeros.P50 != 32 || snap.ReportNonzeros.P99 != 32 {
		t.Errorf("nonzeros p50/p99 = %v/%v, want 32/32", snap.ReportNonzeros.P50, snap.ReportNonzeros.P99)
	}
	bytesH.Observe(5000)
	if got := e.TakeSnapshot().ReportBytes.P99; got != 16384 {
		t.Errorf("bytes p99 after a second large report = %v, want 16384", got)
	}
	// The engine never observes into the histograms itself.
	if bytesH.Count() != 101 || nzH.Count() != 100 {
		t.Errorf("histogram counts %d/%d: the engine observed a report twice", bytesH.Count(), nzH.Count())
	}
}

// TestQualityReaderBesideObservers runs /quality readers and Tick beside
// concurrent ObserveAccepted callers; under -race it proves the verdict,
// computed outside mu, reads only its own copy of the density state.
func TestQualityReaderBesideObservers(t *testing.T) {
	e := New(Config{})
	e.minCheckReports = 50
	e.Bind(telemetry.NewRegistry())
	const observers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.ObserveAccepted(uint64(w*each+i), 12, 100, 3, uint64(i%9), i%10 == 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			rec := httptest.NewRecorder()
			e.ServeQuality(rec, httptest.NewRequest("GET", "/quality", nil))
			if rec.Code != 200 {
				t.Errorf("GET /quality: %d", rec.Code)
			}
			e.Tick()
		}
	}()
	wg.Wait()
	<-done
	if got, want := e.TakeSnapshot().Sampling.Reports, uint64(observers*each*9/10); got != want {
		t.Errorf("sampling saw %d reports, want %d", got, want)
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.ObserveEndpoint(false)
	e.ObserveAccepted(1, 2, 3, 4, 5, false)
	e.ObserveRejected(ReasonDecode, []byte("x"))
	e.ObserveQuarantined(1, 2)
	e.Bind(nil)
	e.Start()
	e.Tick()
	e.Stop()
	if e.ActiveAnomalies() != nil {
		t.Error("nil engine has anomalies")
	}
}

func TestStartStopTicker(t *testing.T) {
	e := New(Config{Interval: 1}) // 1ns: ticks as fast as possible
	e.Bind(telemetry.NewRegistry())
	e.Start()
	e.Stop()
	e.Stop() // idempotent
	// Stop before Start must prevent the ticker from ever starting.
	e2 := New(Config{Interval: 1})
	e2.Stop()
	e2.Start()
}

// jsonKeys unmarshals into a map and returns the sorted top-level keys.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestServeQualityGoldenShape pins the /quality JSON document shape:
// dashboards and scripts parse these exact keys.
func TestServeQualityGoldenShape(t *testing.T) {
	e := newTestEngine(nil)
	acceptN(e, 5)
	e.ObserveRejected(ReasonDecode, []byte("junk"))
	e.Tick()

	rec := httptest.NewRecorder()
	e.ServeQuality(rec, httptest.NewRequest("GET", "/quality", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /quality: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	want := []string{
		"accepted_total", "anomalies", "anomalies_total", "bad_reports_recorded",
		"quarantined_total", "rates", "rejected", "rejected_total",
		"report_bytes", "report_nonzeros", "sampling", "ticks",
		"uptime_seconds",
	}
	if got := jsonKeys(t, rec.Body.Bytes()); !reflect.DeepEqual(got, want) {
		t.Errorf("/quality keys:\n got %v\nwant %v", got, want)
	}

	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Accepted != 5 || snap.Rejected["decode"] != 1 {
		t.Errorf("decoded snapshot: %+v", snap)
	}
	wantRates := []string{
		"accept", "endpoint:/report", "endpoint:/reports",
		"reject:decode", "reject:fold", "reject:method",
		"reject:quarantine", "reject:read", "reject:shed",
		"reject:too-large",
	}
	var rates []string
	for k := range snap.Rates {
		rates = append(rates, k)
	}
	sort.Strings(rates)
	if !reflect.DeepEqual(rates, wantRates) {
		t.Errorf("rate trackers:\n got %v\nwant %v", rates, wantRates)
	}

	rec = httptest.NewRecorder()
	e.ServeQuality(rec, httptest.NewRequest("POST", "/quality", nil))
	if rec.Code != 405 {
		t.Errorf("POST /quality: %d, want 405", rec.Code)
	}
}

// TestServeBadReportsGoldenShape pins the /debug/badreports document and
// per-entry shape.
func TestServeBadReportsGoldenShape(t *testing.T) {
	e := newTestEngine(nil)
	e.ObserveRejected(ReasonDecode, []byte("not a report"))

	rec := httptest.NewRecorder()
	e.ServeBadReports(rec, httptest.NewRequest("GET", "/debug/badreports", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/badreports: %d", rec.Code)
	}
	if got, want := jsonKeys(t, rec.Body.Bytes()), []string{"recorded_total", "reports", "size"}; !reflect.DeepEqual(got, want) {
		t.Errorf("document keys: %v, want %v", got, want)
	}
	var doc struct {
		Recorded uint64            `json:"recorded_total"`
		Reports  []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded != 1 || len(doc.Reports) != 1 {
		t.Fatalf("doc: %+v", doc)
	}
	// run_id is omitempty (rejected payloads decoded no run ID).
	if got, want := jsonKeys(t, doc.Reports[0]), []string{"hex", "reason", "seq", "size", "truncated", "unix_ms"}; !reflect.DeepEqual(got, want) {
		t.Errorf("entry keys: %v, want %v", got, want)
	}

	// Empty engine: reports must be [], not null.
	rec = httptest.NewRecorder()
	New(Config{}).ServeBadReports(rec, httptest.NewRequest("GET", "/debug/badreports", nil))
	var empty struct {
		Reports json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &empty); err != nil {
		t.Fatal(err)
	}
	if string(empty.Reports) != "[]" {
		t.Errorf("empty ring serializes as %s, want []", empty.Reports)
	}
}

func TestRingEviction(t *testing.T) {
	r := newRing(3, 4)
	for i := 0; i < 5; i++ {
		r.record(ReasonDecode, 0, 0, []byte{byte(i), 0xaa, 0xbb, 0xcc, 0xdd})
	}
	entries, total := r.snapshot()
	if total != 5 || len(entries) != 3 {
		t.Fatalf("%d entries, %d total", len(entries), total)
	}
	// Newest first: seq 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if entries[i].Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, entries[i].Seq, want)
		}
	}
	if !entries[0].Truncated || entries[0].Size != 5 || entries[0].Hex != "04aabbcc" {
		t.Errorf("truncation: %+v", entries[0])
	}
}
