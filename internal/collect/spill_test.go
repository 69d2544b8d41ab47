package collect

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cbi/internal/report"
)

// postAccepted posts one encoded report through the handler and reports
// whether the server acknowledged it with a 202.
func postAccepted(t *testing.T, h http.Handler, rep *report.Report) bool {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/report", bytes.NewReader(rep.Encode()))
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code == http.StatusAccepted
}

// feedSpill posts n reports (IDs from+1..from+n) and fails the test on
// any shed — spill tests need a deterministic acknowledged set.
func feedSpill(t *testing.T, h http.Handler, from uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := from + uint64(i) + 1
		if !postAccepted(t, h, mkReport(id, id%4 == 0)) {
			t.Fatalf("report %d not accepted", id)
		}
	}
}

// TestSpillCrashReplayStoreAll kills a StoreAll collector abruptly and
// verifies a successor on the same spill directory rebuilds every
// acknowledged report from the append-only log: the 202 is durable
// across a crash, not just across a graceful Stop.
func TestSpillCrashReplayStoreAll(t *testing.T) {
	dir := t.TempDir()

	srv := NewServer("p", 3, StoreAll)
	srv.SpillDir = dir
	feedSpill(t, srv.Handler(), 0, 40)
	srv.Crash() // no drain, no snapshot, no flush

	again := NewServer("p", 3, StoreAll)
	again.SpillDir = dir
	defer again.Stop()
	if got := again.Aggregate().Runs; got != 40 {
		t.Fatalf("recovered %d runs, want 40", got)
	}
	if got := again.DB().Len(); got != 40 {
		t.Fatalf("recovered %d stored reports, want 40", got)
	}
	if got := again.m.spillReplayed.Value(); got != 40 {
		t.Fatalf("collect_spill_replayed_total = %d, want 40", got)
	}
}

// TestSpillSnapshotCompactsAggregateOnly checks the snapshot/compaction
// cycle: after a snapshot the log holds only reports accepted since,
// and recovery is seed (snapshot) plus replay (fresh log tail).
func TestSpillSnapshotCompactsAggregateOnly(t *testing.T) {
	dir := t.TempDir()

	srv := NewServer("p", 3, AggregateOnly)
	srv.SpillDir = dir
	h := srv.Handler()
	feedSpill(t, h, 0, 30)
	srv.spillSnapshot()
	logSize := func() int64 {
		st, err := os.Stat(filepath.Join(dir, "reports.log"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if got := logSize(); got != 0 {
		t.Fatalf("log not compacted after snapshot: %d bytes", got)
	}
	if got := srv.m.spillSnapshots.Value(); got != 1 {
		t.Fatalf("collect_spill_snapshots_total = %d, want 1", got)
	}
	feedSpill(t, h, 30, 20)
	srv.Crash()

	again := NewServer("p", 3, AggregateOnly)
	again.SpillDir = dir
	defer again.Stop()
	agg := again.Aggregate()
	if agg.Runs != 50 {
		t.Fatalf("recovered %d runs, want 50 (30 from snapshot + 20 replayed)", agg.Runs)
	}
	if got := again.m.spillReplayed.Value(); got != 20 {
		t.Fatalf("collect_spill_replayed_total = %d, want 20 (snapshot absorbed the rest)", got)
	}
}

// TestSpillTornTailTruncatedOnReplay simulates a power-cut write: a
// partial frame at the end of the log. Replay must keep every complete
// (acknowledged) frame, drop the torn tail, and truncate the file so
// the next append starts at a clean boundary.
func TestSpillTornTailTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()

	srv := NewServer("p", 3, StoreAll)
	srv.SpillDir = dir
	feedSpill(t, srv.Handler(), 0, 25)
	srv.Crash()

	logPath := filepath.Join(dir, "reports.log")
	clean, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A 64-byte frame announced, three bytes delivered.
	if _, err := f.Write([]byte{0x40, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	again := NewServer("p", 3, StoreAll)
	again.SpillDir = dir
	defer again.Stop()
	if got := again.Aggregate().Runs; got != 25 {
		t.Fatalf("recovered %d runs, want 25", got)
	}
	if st, err := os.Stat(logPath); err != nil || st.Size() != clean.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d (err %v)", st.Size(), clean.Size(), err)
	}
}

// TestSpillEdgeRestartResumesFederation is the end-to-end recovery
// story: a federated edge crashes between pushes, a successor on the
// same spill directory restores the edge identity and epoch cursor,
// replays the log, and delivers exactly the un-pushed remainder — the
// root ends bit-exact with zero acknowledged reports lost and zero
// double-counted.
func TestSpillEdgeRestartResumesFederation(t *testing.T) {
	for _, c := range []struct {
		name     string
		mode     Mode
		replayed uint64
	}{
		// The epoch cut persisted a seed covering the first 15 and
		// compacted the log, so only the 10 post-cut reports need replay.
		{"AggregateOnly", AggregateOnly, 10},
		// The log is the report database: nothing compacts it, all 25
		// come back.
		{"StoreAll", StoreAll, 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			root := NewServer("p", 3, c.mode)
			root.AcceptMerges = true
			rootAddr, err := root.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer root.Stop()

			newEdge := func() *Server {
				e := NewServer("p", 3, c.mode)
				e.Federation = &Federation{Parent: "http://" + rootAddr, Interval: time.Hour}
				e.SpillDir = dir
				return e
			}

			edge := newEdge()
			feedSpill(t, edge.Handler(), 0, 15)
			if err := edge.FederateNow(); err != nil {
				t.Fatal(err)
			}
			firstID := edge.fed.edgeID
			feedSpill(t, edge.Handler(), 15, 10) // acked but never pushed
			edge.Crash()

			edge2 := newEdge()
			defer edge2.Stop()
			if err := edge2.FederateNow(); err != nil {
				t.Fatal(err)
			}
			if edge2.fed.edgeID != firstID {
				t.Fatalf("edge identity not restored: %q -> %q", firstID, edge2.fed.edgeID)
			}
			want := report.NewAggregate("p", 3)
			for id := uint64(1); id <= 25; id++ { // feedSpill's reports
				if err := want.Fold(mkReport(id, id%4 == 0)); err != nil {
					t.Fatal(err)
				}
			}
			if got := root.Aggregate(); !reflect.DeepEqual(got, want) {
				t.Fatalf("root diverges from the serial fold of the 25 acknowledged reports (15 pushed + 10 recovered):\n root: %+v\n want: %+v", got, want)
			}
			if got := root.reg.Gauge("collect_merge_edges").Value(); got != 1 {
				t.Fatalf("root tracks %v edges, want 1 (identity survived the restart)", got)
			}
			if got := edge2.m.spillReplayed.Value(); got != c.replayed {
				t.Fatalf("collect_spill_replayed_total = %d, want %d", got, c.replayed)
			}
		})
	}
}
