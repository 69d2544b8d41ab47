package collect

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/telemetry"
)

// TestStagedIngestMatchesSerialOracle hammers a staged server with 8
// concurrent batched submitters and checks, under -race:
//
//	(a) the final Aggregate, ScoreState, and DB equal a serial fold of
//	    the same reports (the oracle, built on this side), and
//	(b) ScoreStateAndDB taken at arbitrary instants mid-ingest is
//	    internally consistent — the accumulator and the report store
//	    always describe the same report subset.
func TestStagedIngestMatchesSerialOracle(t *testing.T) {
	const submitters, per, batch = 8, 250, 16
	var all []*report.Report
	for id := 0; id < submitters*per; id++ {
		all = append(all, mkReport(uint64(id), id%5 == 0))
	}

	srv := NewServer("p", 3, StoreAll)
	srv.Shards = 4
	srv.Monitor = monitor.New(monitor.Config{TopK: 3, EveryReports: 100})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			acc, db := srv.ScoreStateAndDB()
			if acc.Runs != db.Len() {
				t.Errorf("mid-ingest snapshot tore: accum has %d runs, DB has %d", acc.Runs, db.Len())
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewClient("http://" + addr)
			client.BatchSize = batch
			for _, r := range all[w*per : (w+1)*per] {
				if err := client.Submit(r); err != nil {
					t.Error(err)
					return
				}
			}
			if err := client.Flush(context.Background()); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()

	assertSameAggregate(t, srv.Aggregate(), serialAggregate(t, all))

	oracle := score.NewAccum(3, nil)
	for _, r := range all {
		if err := oracle.Fold(r); err != nil {
			t.Fatal(err)
		}
	}
	acc := srv.ScoreState()
	if acc.Runs != oracle.Runs {
		t.Fatalf("ScoreState runs = %d, want %d", acc.Runs, oracle.Runs)
	}
	if !reflect.DeepEqual(score.Rank(acc.Predicates()), score.Rank(oracle.Predicates())) {
		t.Fatal("staged ScoreState ranking diverges from serial-fold oracle")
	}

	db := srv.DB()
	if db.Len() != len(all) {
		t.Fatalf("DB has %d reports, want %d", db.Len(), len(all))
	}
	for i, got := range db.Reports {
		want := all[i] // run IDs were assigned in order, DB sorts by run ID
		if !sameReport(got, want) {
			t.Fatalf("DB report %d = run %d (crashed=%v), want run %d (crashed=%v)",
				i, got.RunID, got.Crashed, want.RunID, want.Crashed)
		}
	}
}

// TestStopMidBurstLosesNoAcceptedReport fires batches at a staged
// server, stops it mid-burst, and verifies every report the server
// acknowledged with a 202 is present afterwards: the 202 is a durable
// accept, surviving shutdown because Stop drains the rings before
// retiring the folders.
func TestStopMidBurstLosesNoAcceptedReport(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	const submitters, batch = 6, 8
	var accepted sync.Map // run ID -> true, recorded only on a 202
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 5 * time.Second}
			for seq := 0; seq < 100000; seq++ {
				reps := make([]*report.Report, batch)
				for j := range reps {
					id := uint64(w)<<32 | uint64(seq*batch+j)
					reps[j] = mkReport(id, id%3 == 0)
				}
				resp, err := hc.Post(base+"/reports", "application/octet-stream",
					bytes.NewReader(report.EncodeBatch(reps)))
				if err != nil {
					return // server gone: the burst outlived Stop
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusAccepted:
					for _, r := range reps {
						accepted.Store(r.RunID, true)
					}
				case http.StatusServiceUnavailable:
					// Shed: retriable, not accepted — keep going.
				default:
					t.Errorf("unexpected status %d", code)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the burst develop
	if err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	present := make(map[uint64]bool)
	for _, r := range srv.DB().Reports {
		present[r.RunID] = true
	}
	missing := 0
	accepted.Range(func(k, _ any) bool {
		if !present[k.(uint64)] {
			missing++
		}
		return true
	})
	if missing > 0 {
		t.Fatalf("%d reports acknowledged with 202 are missing after Stop", missing)
	}
}

// TestStageRingWrapAroundFIFO pushes variable-size reservations through
// a tiny ring for several laps, checking FIFO order and slot reuse
// across the wrap boundary.
func TestStageRingWrapAroundFIFO(t *testing.T) {
	r := newStageRing(8)
	buf := make([]stageItem, 8)
	var next, want uint64
	for step, n := range []int{5, 3, 8, 1, 7, 8, 2, 6} { // 40 items: five laps of an 8-slot ring
		pos, ok := r.tryReserve(n)
		if !ok {
			t.Fatalf("step %d: reserve(%d) failed on an empty ring", step, n)
		}
		for i := 0; i < n; i++ {
			r.publish(pos+uint64(i), stageItem{rep: &report.Report{RunID: next}})
			next++
		}
		got := r.drainInto(buf)
		if got != n {
			t.Fatalf("step %d: drained %d, want %d", step, got, n)
		}
		for i := 0; i < got; i++ {
			if buf[i].rep.RunID != want {
				t.Fatalf("step %d: position %d yielded run %d, want %d", step, i, buf[i].rep.RunID, want)
			}
			want++
		}
	}
	for i := range r.slots {
		if r.slots[i].item.rep != nil {
			t.Fatalf("slot %d still holds a report after drain", i)
		}
	}
}

// TestStageRingCapacityBoundaries pins reservation semantics at the
// edges: exactly-capacity fits, capacity+1 never does, and partially
// drained rings admit exactly the freed space. It also checks the
// consumer stops cleanly at a reserved-but-unpublished slot.
func TestStageRingCapacityBoundaries(t *testing.T) {
	r := newStageRing(8)
	if _, ok := r.tryReserve(9); ok {
		t.Fatal("reserve(9) succeeded on an 8-slot ring")
	}
	pos, ok := r.tryReserve(8)
	if !ok || pos != 0 {
		t.Fatalf("reserve(8) = (%d, %v), want (0, true)", pos, ok)
	}
	if _, ok := r.tryReserve(1); ok {
		t.Fatal("reserve(1) succeeded on a full ring")
	}
	for i := uint64(0); i < 8; i++ {
		r.publish(i, stageItem{rep: &report.Report{RunID: i}})
	}
	small := make([]stageItem, 3)
	if got := r.drainInto(small); got != 3 {
		t.Fatalf("drained %d, want 3", got)
	}
	if _, ok := r.tryReserve(4); ok {
		t.Fatal("reserve(4) succeeded with only 3 free slots")
	}
	pos, ok = r.tryReserve(3)
	if !ok || pos != 8 {
		t.Fatalf("reserve(3) = (%d, %v), want (8, true)", pos, ok)
	}
	// Positions 3..7 are published, 8..10 reserved but not yet
	// published: the consumer must take the five and stop.
	big := make([]stageItem, 8)
	if got := r.drainInto(big); got != 5 {
		t.Fatalf("drained %d, want 5 (stop at the unpublished slot)", got)
	}
	if big[0].rep.RunID != 3 {
		t.Fatalf("first drained run = %d, want 3", big[0].rep.RunID)
	}
}

// TestFullRingShedsWithRetryAfter drives the server-level shed path
// deterministically: the shard lock is held so the folder parks
// mid-batch, the ring is filled to capacity, and the capacity+1 POST
// must come back 503 with Retry-After — never block — while everything
// accepted before it survives.
func TestFullRingShedsWithRetryAfter(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	srv.Shards = 1
	srv.StageCapacity = 8
	srv.StageWait = -1 // shed as soon as the bounded spin fails
	srv.Quality = quality.New(quality.Config{Interval: -1})
	h := srv.Handler()
	defer srv.Stop()

	post := func(id uint64) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/report",
			bytes.NewReader(mkReport(id, false).Encode()))
		h.ServeHTTP(rec, req)
		return rec
	}

	// Park the folder: it will drain whatever is already published,
	// then block on the shard lock, leaving later arrivals in the ring.
	srv.shards[0].mu.Lock()
	if rec := post(0); rec.Code != http.StatusAccepted {
		t.Fatalf("report 0: %d", rec.Code)
	}
	ring := &srv.rings[0]
	for deadline := time.Now().Add(5 * time.Second); ring.tail.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("folder never picked up report 0")
		}
		time.Sleep(100 * time.Microsecond)
	}

	for id := uint64(1); id <= 8; id++ { // fill the ring exactly to capacity
		if rec := post(id); rec.Code != http.StatusAccepted {
			t.Fatalf("report %d: %d, want 202", id, rec.Code)
		}
	}
	rec := post(9) // capacity + 1: must shed, not block
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow report: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed 503 carries no Retry-After header")
	}
	if got := srv.m.shed.Value(); got != 1 {
		t.Errorf("collect_reports_shed_total = %d, want 1", got)
	}
	if snap := srv.Quality.TakeSnapshot(); snap.Rejected["shed"] != 1 {
		t.Errorf("quality shed rejections = %d, want 1", snap.Rejected["shed"])
	}

	// Release the folder: every accepted report folds, the shed one is
	// absent, and ingest resumes.
	srv.shards[0].mu.Unlock()
	if agg := srv.Aggregate(); agg.Runs != 9 {
		t.Fatalf("after release: %d runs, want 9", agg.Runs)
	}
	if rec := post(10); rec.Code != http.StatusAccepted {
		t.Fatalf("post-recovery report: %d, want 202", rec.Code)
	}
	if agg := srv.Aggregate(); agg.Runs != 10 {
		t.Fatalf("after recovery: %d runs, want 10", agg.Runs)
	}
}

// TestClientHonorsRetryAfter pins the client side of the back-pressure
// contract: a 503 carrying Retry-After is retried after the advertised
// (capped) delay and counted in client_backpressure_total.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	var gaps []time.Time
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		gaps = append(gaps, time.Now())
		n := calls
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer backend.Close()

	client := NewClient(backend.URL)
	client.Metrics = telemetry.NewRegistry()
	client.RetryAfterCap = 20 * time.Millisecond // cap the 1s header for test speed
	if err := client.Submit(mkReport(1, false)); err != nil {
		t.Fatalf("submit with one shed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("server saw %d calls, want 2", calls)
	}
	if gap := gaps[1].Sub(gaps[0]); gap < 20*time.Millisecond {
		t.Errorf("retry came after %v, before the capped Retry-After elapsed", gap)
	}
	if got := client.Metrics.Counter("client_backpressure_total").Value(); got != 1 {
		t.Errorf("client_backpressure_total = %d, want 1", got)
	}
	if got := client.Metrics.Counter("client_submit_retries_total").Value(); got != 1 {
		t.Errorf("client_submit_retries_total = %d, want 1", got)
	}
}

// post drives one request through a handler without a listener.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestEveryWayInIsTheSameFoldAndTheSameBooks sends one report set through
// each way into the collector — singles to /report, batches to /reports,
// single-report bodies to /reports, and one batch longer than a ring (the
// only request its handler folds itself) — with and without site spans
// (per-report vs. merged folder arm) and with and without the journal.
// Whatever the way in, the state equals the serial fold on this side of
// the API, the books count every report once, nothing is shed, and a
// successor on the same spill directory replays to the same state.
func TestEveryWayInIsTheSameFoldAndTheSameBooks(t *testing.T) {
	const n, ringCap = 200, 64
	var all []*report.Report
	for id := 0; id < n; id++ {
		all = append(all, mkReport(uint64(id), id%5 == 0))
	}
	ways := []struct {
		name string
		send func(t *testing.T, h http.Handler)
	}{
		{"singles to /report", func(t *testing.T, h http.Handler) {
			for _, r := range all {
				if rec := post(h, "/report", r.Encode()); rec.Code != http.StatusAccepted {
					t.Fatalf("run %d: %d", r.RunID, rec.Code)
				}
			}
		}},
		{"batches to /reports", func(t *testing.T, h http.Handler) {
			for i := 0; i < n; i += 16 {
				b := all[i:min(i+16, n)]
				if rec := post(h, "/reports", report.EncodeBatch(b)); rec.Code != http.StatusAccepted {
					t.Fatalf("batch at %d: %d", i, rec.Code)
				}
			}
		}},
		{"single-report bodies to /reports", func(t *testing.T, h http.Handler) {
			for _, r := range all {
				if rec := post(h, "/reports", r.Encode()); rec.Code != http.StatusAccepted {
					t.Fatalf("run %d: %d", r.RunID, rec.Code)
				}
			}
		}},
		{"one batch longer than a ring", func(t *testing.T, h http.Handler) {
			if rec := post(h, "/reports", report.EncodeBatch(all)); rec.Code != http.StatusAccepted {
				t.Fatalf("oversize batch: %d", rec.Code)
			}
		}},
	}
	siteSets := map[string][]score.SiteSpan{
		"no sites": nil,
		"sites":    {{Base: 0, Len: 2}, {Base: 2, Len: 1}},
	}
	for _, way := range ways {
		for sitesName, sites := range siteSets {
			for _, spill := range []bool{false, true} {
				name := way.name + "/" + sitesName
				if spill {
					name += "/spill"
				}
				t.Run(name, func(t *testing.T) {
					dir := ""
					if spill {
						dir = t.TempDir()
					}
					newServer := func() *Server {
						srv := NewServer("p", 3, StoreAll)
						srv.Shards = 2
						srv.StageCapacity = ringCap
						srv.StageWait = time.Minute // a slow folder must not turn into a shed
						srv.Sites = sites
						srv.SpillDir = dir
						// Told of exactly n folds, the monitor takes exactly one
						// cadence snapshot.
						srv.Monitor = monitor.New(monitor.Config{TopK: 3, EveryReports: n})
						srv.Quality = quality.New(quality.Config{Interval: -1})
						return srv
					}
					oracleAcc := score.NewAccum(3, sites)
					for _, r := range all {
						if err := oracleAcc.Fold(r); err != nil {
							t.Fatal(err)
						}
					}
					sameState := func(srv *Server) {
						t.Helper()
						assertSameAggregate(t, srv.Aggregate(), serialAggregate(t, all))
						acc := srv.ScoreState()
						if acc.Runs != n || !reflect.DeepEqual(score.Rank(acc.Predicates()), score.Rank(oracleAcc.Predicates())) {
							t.Error("ScoreState ranking diverges from the serial fold")
						}
						db := srv.DB()
						if db.Len() != n {
							t.Fatalf("DB has %d reports, want %d", db.Len(), n)
						}
						for i, got := range db.Reports {
							if want := all[i]; !sameReport(got, want) {
								t.Fatalf("DB report %d is run %d, want run %d", i, got.RunID, want.RunID)
							}
						}
						for deadline := time.Now().Add(5 * time.Second); srv.Monitor.TriageStats().RankingsSnapshots != 1; {
							if time.Now().After(deadline) {
								t.Fatalf("monitor took %d cadence snapshots, want 1 (it was not told of %d folds)",
									srv.Monitor.TriageStats().RankingsSnapshots, n)
							}
							time.Sleep(time.Millisecond)
						}
					}

					srv := newServer()
					way.send(t, srv.Handler())
					sameState(srv)
					if got := srv.m.accepted.Value(); got != n {
						t.Errorf("collect_reports_accepted_total = %d, want %d", got, n)
					}
					if got := srv.m.reportNonzeros.Count(); got != n {
						t.Errorf("collect_report_nonzeros count = %d, want %d", got, n)
					}
					if got := srv.m.foldSeconds.Count(); got != n {
						t.Errorf("collect_fold_seconds count = %d, want %d", got, n)
					}
					if got := srv.Quality.TakeSnapshot().Accepted; got != n {
						t.Errorf("quality accepted total = %d, want %d", got, n)
					}
					if got := srv.m.shed.Value(); got != 0 {
						t.Errorf("collect_reports_shed_total = %d, want 0", got)
					}
					if err := srv.Stop(); err != nil {
						t.Fatal(err)
					}
					if spill {
						again := newServer()
						defer again.Stop()
						sameState(again)
						if got := again.m.spillReplayed.Value(); got != n {
							t.Errorf("collect_spill_replayed_total = %d, want %d", got, n)
						}
					}
				})
			}
		}
	}
}

// TestFoldRejectionKeepsItsPayload: a request refused at validation lands
// in the forensic ring with its bytes, whichever endpoint it came by.
func TestFoldRejectionKeepsItsPayload(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	srv.Quality = quality.New(quality.Config{Interval: -1})
	h := srv.Handler()
	defer srv.Stop()

	alien := mkReport(1, false)
	alien.Program = "someone-else"
	body := alien.Encode()
	if rec := post(h, "/report", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("program mismatch: %d, want 400", rec.Code)
	}
	if got := srv.m.rejectedFold.Value(); got != 1 {
		t.Errorf(`collect_reports_rejected_total{reason="fold"} = %d, want 1`, got)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/badreports", nil))
	var bad struct {
		Reports []quality.BadReport `json:"reports"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil {
		t.Fatal(err)
	}
	if len(bad.Reports) != 1 || bad.Reports[0].Reason != "fold" ||
		bad.Reports[0].Size != len(body) || bad.Reports[0].Hex != hex.EncodeToString(body) {
		t.Fatalf("/debug/badreports = %+v, want the rejected payload under reason fold", bad.Reports)
	}
}

// TestNoAcknowledgmentAfterTheDrain: once Stop or Crash has drained the
// rings, closed the journal and (on an edge) taken the final cut, a
// request that still reaches the handler is refused like overload — a
// 202 would promise what nothing is left to keep.
func TestNoAcknowledgmentAfterTheDrain(t *testing.T) {
	for _, how := range []string{"Stop", "Crash"} {
		t.Run(how, func(t *testing.T) {
			srv := NewServer("p", 3, StoreAll)
			srv.SpillDir = t.TempDir()
			h := srv.Handler()
			feedSpill(t, h, 0, 5)
			if how == "Stop" {
				if err := srv.Stop(); err != nil {
					t.Fatal(err)
				}
			} else {
				srv.Crash()
			}
			before := srv.Aggregate()

			late := []*report.Report{mkReport(100, true), mkReport(101, false), mkReport(102, false)}
			for _, c := range []struct {
				path string
				body []byte
			}{
				{"/report", late[0].Encode()},
				{"/reports", report.EncodeBatch(late)},
			} {
				rec := post(h, c.path, c.body)
				if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
					t.Errorf("%s after %s: %d (Retry-After %q), want 503 with Retry-After",
						c.path, how, rec.Code, rec.Header().Get("Retry-After"))
				}
			}
			if got := srv.m.shed.Value(); got != 4 {
				t.Errorf("collect_reports_shed_total = %d, want 4", got)
			}
			if got := srv.m.accepted.Value(); got != 5 {
				t.Errorf("collect_reports_accepted_total = %d, want 5", got)
			}
			assertSameAggregate(t, srv.Aggregate(), before)
			if before.Runs != 5 {
				t.Errorf("%d runs, want 5", before.Runs)
			}
		})
	}
}

// TestIngestWireContract pins what each endpoint answers, one subtest a
// clause.
func TestIngestWireContract(t *testing.T) {
	t.Run("/report refuses the batch framing as a decode error", func(t *testing.T) {
		srv := NewServer("p", 3, StoreAll)
		h := srv.Handler()
		defer srv.Stop()
		if rec := post(h, "/report", report.EncodeBatch([]*report.Report{mkReport(1, false)})); rec.Code != http.StatusBadRequest {
			t.Fatalf("batch body on /report: %d, want 400", rec.Code)
		}
		if got := srv.m.rejectedDecode.Value(); got != 1 {
			t.Errorf(`collect_reports_rejected_total{reason="decode"} = %d, want 1`, got)
		}
		if got := srv.Aggregate().Runs; got != 0 {
			t.Errorf("%d runs folded, want 0", got)
		}
	})

	t.Run("batch counters count /reports requests only", func(t *testing.T) {
		srv := NewServer("p", 3, StoreAll)
		h := srv.Handler()
		defer srv.Stop()
		post(h, "/report", mkReport(1, false).Encode())
		post(h, "/reports", mkReport(2, false).Encode())
		post(h, "/reports", report.EncodeBatch([]*report.Report{mkReport(3, false), mkReport(4, true)}))
		st := srv.computeStats(monitor.TriageStats{})
		if st.Runs != 4 || st.Batches != 2 || st.BatchReports != 3 {
			t.Errorf("runs=%d batches=%d batch_reports=%d, want 4/2/3", st.Runs, st.Batches, st.BatchReports)
		}
	})

	t.Run("a shed batch leaves nothing behind", func(t *testing.T) {
		srv := NewServer("p", 3, StoreAll)
		srv.Shards = 1
		srv.StageCapacity = 8
		srv.StageWait = -1
		h := srv.Handler()
		defer srv.Stop()
		// Park the folder on the shard lock with report 0 in hand.
		srv.shards[0].mu.Lock()
		post(h, "/report", mkReport(0, false).Encode())
		for deadline := time.Now().Add(5 * time.Second); srv.rings[0].tail.Load() != 1; {
			if time.Now().After(deadline) {
				t.Fatal("folder never picked up report 0")
			}
			time.Sleep(100 * time.Microsecond)
		}
		batch := func(from uint64, n int) []byte {
			reps := make([]*report.Report, n)
			for i := range reps {
				reps[i] = mkReport(from+uint64(i), false)
			}
			return report.EncodeBatch(reps)
		}
		if rec := post(h, "/reports", batch(10, 6)); rec.Code != http.StatusAccepted {
			t.Fatalf("batch of 6 into an empty ring of 8: %d", rec.Code)
		}
		rec := post(h, "/reports", batch(20, 4)) // two slots free
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("batch of 4 into 2 free slots: %d (Retry-After %q), want 503 with Retry-After",
				rec.Code, rec.Header().Get("Retry-After"))
		}
		if got := srv.m.shed.Value(); got != 4 {
			t.Errorf("collect_reports_shed_total = %d, want 4", got)
		}
		srv.shards[0].mu.Unlock()
		for _, r := range srv.DB().Reports {
			if r.RunID >= 20 {
				t.Errorf("run %d of the shed batch was folded", r.RunID)
			}
		}
		if got := srv.Aggregate().Runs; got != 7 {
			t.Errorf("%d runs, want 7", got)
		}
		if st := srv.computeStats(monitor.TriageStats{}); st.Batches != 1 {
			t.Errorf("batches = %d, want 1 (the shed one is not counted)", st.Batches)
		}
	})

	t.Run("a journal failure is 500 and is not accounted", func(t *testing.T) {
		srv := NewServer("p", 3, StoreAll)
		srv.SpillDir = t.TempDir()
		srv.Quality = quality.New(quality.Config{Interval: -1})
		h := srv.Handler()
		defer srv.Stop()
		feedSpill(t, h, 0, 3)
		srv.spill.logF.Close() // the disk goes away under the collector
		for _, c := range []struct {
			path string
			body []byte
		}{
			{"/report", mkReport(50, false).Encode()},
			{"/reports", report.EncodeBatch([]*report.Report{mkReport(51, false), mkReport(52, false)})},
		} {
			if rec := post(h, c.path, c.body); rec.Code != http.StatusInternalServerError {
				t.Errorf("%s with a dead journal: %d, want 500", c.path, rec.Code)
			}
		}
		if got := srv.m.spillErrors.Value(); got != 2 {
			t.Errorf("collect_spill_errors_total = %d, want 2", got)
		}
		if got := srv.m.accepted.Value(); got != 3 {
			t.Errorf("collect_reports_accepted_total = %d, want 3", got)
		}
		if got := srv.Quality.TakeSnapshot().Accepted; got != 3 {
			t.Errorf("quality accepted total = %d, want 3", got)
		}
	})
}
