package collect

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"cbi/internal/report"
)

func mkReport(id uint64, crashed bool) *report.Report {
	return &report.Report{
		RunID:    id,
		Program:  "p",
		Crashed:  crashed,
		Counters: []uint64{id, 0, 1},
	}
}

// sameReport reports whether a collector's decoded copy of a report is
// the report that was sent: run, outcome, counter space and nonzero
// pairs (a decoded report has no dense vector to compare).
func sameReport(got, want *report.Report) bool {
	return got.RunID == want.RunID && got.Crashed == want.Crashed &&
		got.NumCounters() == want.NumCounters() && slices.Equal(pairs(got), pairs(want))
}

// pairs lists a report's nonzero counters without building its cache.
func pairs(r *report.Report) []report.CounterNZ {
	var out []report.CounterNZ
	r.ForEachNonzero(func(i int, c uint64) { out = append(out, report.CounterNZ{Index: int32(i), Value: c}) })
	return out
}

func TestServerRoundTripOverHTTP(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	client := NewClient("http://" + addr)
	for i := 0; i < 20; i++ {
		if err := client.Submit(mkReport(uint64(i), i%4 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 20 || st.Crashes != 5 {
		t.Errorf("stats: %+v", st)
	}
	db := srv.DB()
	if db.Len() != 20 {
		t.Errorf("stored: %d", db.Len())
	}
}

func TestServerAggregateOnlyDiscardsReports(t *testing.T) {
	srv := NewServer("p", 3, AggregateOnly)
	for i := 0; i < 10; i++ {
		if err := srv.Submit(mkReport(uint64(i+1), i == 0)); err != nil {
			t.Fatal(err)
		}
	}
	if srv.DB().Len() != 0 {
		t.Error("aggregate-only server must not retain reports")
	}
	agg := srv.Aggregate()
	if agg.Runs != 10 || agg.Crashes != 1 {
		t.Errorf("aggregate: %+v", agg)
	}
	// Counter 0 was nonzero in every run with id>0; counter 2 always.
	if !agg.NonzeroInSuccess[2] || !agg.NonzeroInFailure[2] {
		t.Error("bit tracking broken")
	}
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	// Garbage body.
	resp, err := http.Post(base+"/report", "application/octet-stream", strings.NewReader("nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage: %s", resp.Status)
	}

	// Wrong method.
	resp, err = http.Get(base + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /report: %s", resp.Status)
	}

	// Mismatched counter space.
	bad := &report.Report{Program: "p", Counters: make([]uint64, 99)}
	if err := NewClient(base).Submit(bad); err == nil {
		t.Error("mismatched report accepted")
	}
}

func TestServerSnapshotsAreIsolated(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	if err := srv.Submit(mkReport(1, false)); err != nil {
		t.Fatal(err)
	}
	db := srv.DB()
	agg := srv.Aggregate()
	if err := srv.Submit(mkReport(2, true)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || agg.Runs != 1 {
		t.Error("snapshots must not see later submissions")
	}
}
