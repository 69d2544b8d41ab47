package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/report"
	"cbi/internal/telemetry"
)

// fakeSource is a Source whose state the test mutates between snapshots.
type fakeSource struct {
	acc *score.Accum
}

func (f *fakeSource) ScoreState() *score.Accum { return f.acc }

// accumOf folds the given reports into a fresh accumulator.
func accumOf(t *testing.T, n int, spans []score.SiteSpan, reps []*report.Report) *score.Accum {
	t.Helper()
	acc := score.NewAccum(n, spans)
	for _, r := range reps {
		if err := acc.Fold(r); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// rep builds a report with the given nonzero counters in an n-counter
// space.
func rep(id uint64, crashed bool, n int, nonzero ...int) *report.Report {
	counters := make([]uint64, n)
	for _, c := range nonzero {
		counters[c] = 1
	}
	return &report.Report{RunID: id, Program: "p", Crashed: crashed, Counters: counters}
}

func newBound(t *testing.T, cfg Config, src Source) *Monitor {
	t.Helper()
	m := New(cfg)
	m.Bind(src, telemetry.NewRegistry())
	t.Cleanup(m.Stop)
	return m
}

func TestRankDistance(t *testing.T) {
	ranks := func(ids ...int) map[int]int {
		m := make(map[int]int, len(ids))
		for i, id := range ids {
			m[id] = i
		}
		return m
	}
	cases := []struct {
		name     string
		old, cur map[int]int
		want     float64
	}{
		{"both empty", ranks(), ranks(), 0},
		{"identical", ranks(1, 2, 3), ranks(1, 2, 3), 0},
		{"reversed", ranks(1, 2, 3), ranks(3, 2, 1), 1},
		{"single swap", ranks(1, 2, 3), ranks(2, 1, 3), 1.0 / 3},
		// Disjoint top-Ks: every old member outranks every new member in
		// the old list and vice versa, so every old-new pair is discordant:
		// 4 of C(4,2)=6 pairs.
		{"disjoint", ranks(1, 2), ranks(3, 4), 4.0 / 6},
		{"one entrant at bottom", ranks(1, 2), ranks(1, 3), 1.0 / 3},
		{"singleton", ranks(1), ranks(1), 0},
	}
	for _, tc := range cases {
		got := rankDistance(tc.old, tc.cur, len(tc.old), len(tc.cur))
		if got != tc.want {
			t.Errorf("%s: rankDistance = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChurnCounts(t *testing.T) {
	ch := churnOf([]int{1, 2, 3}, []int{2, 4, 5})
	if ch.NewEntrants != 2 || ch.Dropouts != 2 {
		t.Fatalf("churn = %+v, want 2 entrants, 2 dropouts", ch)
	}
}

// TestConvergence drives snapshots over changing then stable state and
// watches the converged flag transition (and divergence reset it).
func TestConvergence(t *testing.T) {
	const n = 4
	spans := []score.SiteSpan{{Base: 0, Len: n}}
	// State A ranks counter 0 and 1; crashes observe them true.
	repsA := []*report.Report{
		rep(0, true, n, 0, 1), rep(1, true, n, 0, 1), rep(2, false, n, 2),
		rep(3, true, n, 0), rep(4, false, n, 3),
	}
	src := &fakeSource{acc: accumOf(t, n, spans, repsA)}
	m := newBound(t, Config{TopK: 2}, src)

	for i := 1; i < stableFor; i++ {
		if s := m.Snapshot(); s.Converged || s.Stable != i {
			t.Fatalf("snapshot %d: stable=%d converged=%v", i, s.Stable, s.Converged)
		}
	}
	if s := m.Snapshot(); !s.Converged {
		t.Fatalf("identical snapshot %d should converge (stable=%d)", stableFor, s.Stable)
	}
	runs, seq, _, ok := m.Convergence()
	if !ok || seq != stableFor || runs != len(repsA) {
		t.Fatalf("Convergence() = (%d,%d,%v), want runs=%d seq=%d", runs, seq, ok, len(repsA), stableFor)
	}
	st := m.TriageStats()
	if !st.Converged || st.RankingsSnapshots != stableFor || st.LastSnapshotUnix == 0 {
		t.Fatalf("TriageStats = %+v", st)
	}

	// Shift the rankings: counter 1 overtakes counter 0 → divergence.
	more := append(append([]*report.Report{}, repsA...),
		rep(5, true, n, 1), rep(6, true, n, 1), rep(7, true, n, 1),
		rep(8, true, n, 1), rep(9, true, n, 1))
	src.acc = accumOf(t, n, spans, more)
	s3 := m.Snapshot()
	if s3.Converged || s3.Stable != 1 {
		t.Fatalf("rank shift should diverge: %+v", s3)
	}
	// First-convergence record is preserved across divergence.
	if _, seq, _, ok := m.Convergence(); !ok || seq != stableFor {
		t.Fatalf("first convergence record lost: seq=%d ok=%v", seq, ok)
	}
}

// TestEmptyRankingsNeverConverge: an idle collector (interval ticker
// firing on no data) must not declare victory over an empty top-K.
func TestEmptyRankingsNeverConverge(t *testing.T) {
	src := &fakeSource{acc: score.NewAccum(4, nil)}
	m := newBound(t, Config{TopK: 3}, src)
	for i := 0; i < 5; i++ {
		if s := m.Snapshot(); s.Converged {
			t.Fatalf("converged on empty rankings at snapshot %d", i+1)
		}
	}
}

// TestCadenceSnapshots: ReportFolded crossings wake the worker, which
// eventually publishes a snapshot without any forced call.
func TestCadenceSnapshots(t *testing.T) {
	const n = 4
	reps := []*report.Report{rep(0, true, n, 0), rep(1, false, n, 1)}
	src := &fakeSource{acc: accumOf(t, n, nil, reps)}
	m := newBound(t, Config{EveryReports: 2}, src)
	for i := 0; i < 4; i++ {
		m.ReportFolded()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Current() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no cadence snapshot within deadline")
		}
		time.Sleep(time.Millisecond)
	}
	if m.Current().Runs != 2 {
		t.Fatalf("snapshot runs = %d, want 2", m.Current().Runs)
	}
}

func TestServeRankings(t *testing.T) {
	const n = 6
	spans := []score.SiteSpan{{Base: 0, Len: n}}
	// Two ranked predicates (counters 0 and 1), snapshot K of 1, so
	// ?top=50 genuinely needs a fresh recompute.
	reps := []*report.Report{
		rep(0, true, n, 0, 1), rep(1, true, n, 0), rep(2, true, n, 0, 2),
		rep(3, false, n, 3), rep(4, false, n, 4), rep(5, true, n, 1),
	}
	src := &fakeSource{acc: accumOf(t, n, spans, reps)}
	m := newBound(t, Config{TopK: 1, PredicateName: func(c int) string {
		return fmt.Sprintf("pred-%d", c)
	}}, src)

	get := func(url string) rankingsResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := httptest.NewRecorder()
		m.ServeRankings(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
		}
		var resp rankingsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Before any snapshot: served fresh from live state.
	resp := get("/rankings")
	if !resp.Fresh || len(resp.Top) == 0 || resp.Runs != len(reps) {
		t.Fatalf("pre-snapshot response: %+v", resp)
	}
	if resp.Top[0].Name != fmt.Sprintf("pred-%d", resp.Top[0].Counter) {
		t.Fatalf("predicate name not applied: %+v", resp.Top[0])
	}

	m.Snapshot()
	resp = get("/rankings")
	if resp.Fresh || resp.Seq != 1 {
		t.Fatalf("post-snapshot response should serve the cached snapshot: %+v", resp)
	}
	if resp2 := get("/rankings?fresh=1"); !resp2.Fresh {
		t.Fatal("fresh=1 should recompute")
	}
	if resp2 := get("/rankings?top=1"); len(resp2.Top) != 1 {
		t.Fatalf("top=1 returned %d entries", len(resp2.Top))
	}
	// Asking for more than the snapshot holds falls back to fresh.
	if resp2 := get("/rankings?top=50"); !resp2.Fresh {
		t.Fatal("top beyond snapshot K should recompute")
	}

	w := httptest.NewRecorder()
	m.ServeRankings(w, httptest.NewRequest(http.MethodPost, "/rankings", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /rankings = %d, want 405", w.Code)
	}
	w = httptest.NewRecorder()
	m.ServeRankings(w, httptest.NewRequest(http.MethodGet, "/rankings?top=x", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad top parameter = %d, want 400", w.Code)
	}
}

// readEvent scans one SSE frame ("event:" + "data:" lines) from the
// stream, skipping comments and retry lines.
func readEvent(t *testing.T, sc *bufio.Scanner) (event string, data []byte) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			return event, data
		}
	}
	t.Fatalf("SSE stream ended early: %v", sc.Err())
	return "", nil
}

func TestServeWatch(t *testing.T) {
	const n = 4
	spans := []score.SiteSpan{{Base: 0, Len: n}}
	reps := []*report.Report{
		rep(0, true, n, 0), rep(1, true, n, 0), rep(2, false, n, 1),
	}
	src := &fakeSource{acc: accumOf(t, n, spans, reps)}
	m := newBound(t, Config{TopK: 2}, src)
	m.Snapshot() // a connecting client receives the current snapshot

	ts := httptest.NewServer(http.HandlerFunc(m.ServeWatch))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	ev, data := readEvent(t, sc)
	if ev != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", ev)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 || snap.Runs != len(reps) {
		t.Fatalf("initial snapshot = %+v", snap)
	}

	// Identical snapshots until the stableFor-th converges: the stream
	// carries a snapshot event for each, then the converged event.
	for i := 1; i < stableFor; i++ {
		m.Snapshot()
		ev, _ = readEvent(t, sc)
		if ev != "snapshot" {
			t.Fatalf("event = %q, want snapshot", ev)
		}
	}
	ev, data = readEvent(t, sc)
	if ev != "converged" {
		t.Fatalf("event = %q, want converged", ev)
	}
	var conv convergedEvent
	if err := json.Unmarshal(data, &conv); err != nil {
		t.Fatal(err)
	}
	if conv.Seq != stableFor || len(conv.Top) == 0 {
		t.Fatalf("converged event = %+v", conv)
	}

	w := httptest.NewRecorder()
	m.ServeWatch(w, httptest.NewRequest(http.MethodPost, "/watch", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /watch = %d, want 405", w.Code)
	}
}

func TestServeDashboard(t *testing.T) {
	m := newBound(t, Config{}, &fakeSource{acc: score.NewAccum(1, nil)})
	w := httptest.NewRecorder()
	m.ServeDashboard(w, httptest.NewRequest(http.MethodGet, "/dashboard", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /dashboard = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{"<!DOCTYPE html>", "EventSource('watch')", "cbi live triage"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	w = httptest.NewRecorder()
	m.ServeDashboard(w, httptest.NewRequest(http.MethodPost, "/dashboard", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /dashboard = %d, want 405", w.Code)
	}
}

func TestNilMonitorAccessors(t *testing.T) {
	var m *Monitor
	if st := m.TriageStats(); st != (TriageStats{}) {
		t.Fatalf("nil TriageStats = %+v", st)
	}
	m.ReportFolded() // must not panic
	m.Stop()
	if m.Current() != nil {
		t.Fatal("nil Current should be nil")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	man := &Manifest{
		Program:     "p",
		NumCounters: 6,
		Sites:       [][2]int{{0, 3}, {3, 3}},
		Predicates:  []string{"a", "b", "c", "d", "e", "f"},
	}
	path := t.TempDir() + "/sites.json"
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCounters != 6 || len(got.Sites) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	spans := got.Spans()
	if spans[1] != (score.SiteSpan{Base: 3, Len: 3}) {
		t.Fatalf("spans = %+v", spans)
	}
	if got.PredicateName(2) != "c" || got.PredicateName(99) != "counter 99" {
		t.Fatalf("names = %q, %q", got.PredicateName(2), got.PredicateName(99))
	}
}
