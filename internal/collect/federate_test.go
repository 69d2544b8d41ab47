package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/quality"
	"cbi/internal/report"
)

// newTestEdge builds an edge collector pointed at a running root, with
// the push timer parked so tests drive cuts deterministically through
// FederateNow.
func newTestEdge(t *testing.T, rootAddr, edgeID string) *Server {
	t.Helper()
	edge := NewServer("p", 3, AggregateOnly)
	edge.Federation = &Federation{
		Parent:   "http://" + rootAddr,
		EdgeID:   edgeID,
		Interval: time.Hour,
	}
	return edge
}

// handlerTransport hands a Client's requests straight to a handler, so a
// submitter knows which batches were acknowledged: no socket can fail
// between the server's 202 and the caller.
type handlerTransport struct{ h http.Handler }

func (tr handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestFederatedTreeMatchesSerialFold is the core merge-legality check:
// two edges ingesting disjoint report streams and pushing delta merges
// over several epochs leave the root bit-identical to one collector
// folding the union serially. The overload row feeds the same tree the
// way a fleet does — concurrent batched submitters retrying 503s from
// staging rings smaller than the traffic in flight, garbage bodies in
// between — and also requires every rejection an edge recorded to reach
// the root through the quality-digest deltas.
func TestFederatedTreeMatchesSerialFold(t *testing.T) {
	for _, overload := range []bool{false, true} {
		t.Run(fmt.Sprintf("overload=%v", overload), func(t *testing.T) {
			federatedTreeMatchesSerialFold(t, overload)
		})
	}
}

func federatedTreeMatchesSerialFold(t *testing.T, overload bool) {
	const submitters, batch, batchesPerRound = 8, 16, 6
	shape := func(s *Server) *Server {
		if overload {
			s.Shards = 1
			s.StageCapacity = 64 // against submitters × batch = 128 in flight
			s.StageWait = -1     // shed at once: the retry path is the point
			s.Quality = quality.New(quality.Config{Interval: -1})
		}
		return s
	}
	root := shape(NewServer("p", 3, AggregateOnly))
	root.AcceptMerges = true
	addr, err := root.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	edges := []*Server{
		shape(newTestEdge(t, addr, "edge-a")),
		shape(newTestEdge(t, addr, "edge-b")),
	}
	oracleAgg := report.NewAggregate("p", 3)
	oracleAcc := score.NewAccum(3, nil)
	var oracleMu sync.Mutex
	acked := func(reps ...*report.Report) {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		for _, r := range reps {
			if err := oracleAgg.Fold(r); err != nil {
				t.Error(err)
			}
			if err := oracleAcc.Fold(r); err != nil {
				t.Error(err)
			}
		}
	}

	var id, lost, garbage atomic.Uint64
	next := func() *report.Report {
		run := id.Add(1)
		return mkReport(run, run%4 == 0)
	}
	feed := func(e *Server, n int) {
		for i := 0; i < n; i++ {
			r := next()
			if err := e.Submit(r); err != nil {
				t.Fatal(err)
			}
			acked(r)
		}
	}
	// One overload round: every submitter posts batchesPerRound batches
	// and one garbage body, alternating between the two edges. A batch
	// that exhausts its retries was never acknowledged: it stays out of
	// the oracle and is counted. The first round starts with the folders
	// parked on their shard locks until each ring has filled and shed, so
	// the retry path runs on every machine, not only on a slow one.
	clients := make([]*Client, len(edges))
	for i, e := range edges {
		clients[i] = &Client{
			BaseURL:       "http://edge",
			HTTP:          &http.Client{Transport: handlerTransport{e.Handler()}},
			MaxAttempts:   50,
			RetryAfterCap: time.Millisecond,
		}
	}
	feedOverload := func(park bool) {
		if park {
			for _, e := range edges {
				e.shards[0].mu.Lock()
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := 0; b < batchesPerRound; b++ {
					reps := make([]*report.Report, batch)
					for j := range reps {
						reps[j] = next()
					}
					c := clients[(w+b)%len(clients)]
					if b == batchesPerRound/2 {
						if err := c.post(context.Background(), nil, "/report", []byte("not a report")); err == nil {
							t.Error("garbage body accepted")
						}
						garbage.Add(1)
					}
					if err := c.postBatch(context.Background(), reps); err != nil {
						lost.Add(batch)
						continue
					}
					acked(reps...)
				}
			}(w)
		}
		if park {
			for _, e := range edges {
				for deadline := time.Now().Add(5 * time.Second); e.m.shed.Value() == 0 && time.Now().Before(deadline); {
					time.Sleep(100 * time.Microsecond)
				}
				e.shards[0].mu.Unlock()
			}
		}
		wg.Wait()
	}

	// Three epochs per edge, interleaved, with an empty cut in the
	// middle (FederateNow with nothing new must be a no-op, not a
	// zero-run push).
	for round := 0; round < 3; round++ {
		if overload {
			feedOverload(round == 0)
		}
		for _, e := range edges {
			if !overload {
				feed(e, 17)
			}
			if err := e.FederateNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := edges[0].FederateNow(); err != nil {
		t.Fatal(err)
	}

	if oracleAgg.Runs == 0 {
		t.Fatal("no report was acknowledged")
	}
	rootAgg := root.Aggregate()
	rootAgg.Program = oracleAgg.Program // the oracle names the program locally
	if !reflect.DeepEqual(rootAgg, oracleAgg) {
		t.Fatalf("root aggregate diverges from serial fold:\n root: %+v\noracle: %+v", rootAgg, oracleAgg)
	}
	rootAcc := root.ScoreState()
	if rootAcc.Runs != oracleAcc.Runs {
		t.Fatalf("root accum runs %d, oracle %d", rootAcc.Runs, oracleAcc.Runs)
	}
	if !reflect.DeepEqual(score.Rank(rootAcc.Predicates()), score.Rank(oracleAcc.Predicates())) {
		t.Fatal("root predicate ranking diverges from serial fold")
	}

	if overload {
		var shed uint64
		var atEdges [quality.NumReasons]uint64
		for _, e := range edges {
			shed += e.m.shed.Value()
			for r, n := range e.Quality.TotalsDigest().Rejected {
				atEdges[r] += n
			}
		}
		if shed == 0 {
			t.Error("no collector shed a report: the back-pressure path was not exercised")
		}
		if got := root.Quality.TotalsDigest().Rejected; got != atEdges {
			t.Errorf("rejections at the root %v, recorded at the edges %v", got, atEdges)
		}
		if got := atEdges[quality.ReasonDecode]; got != garbage.Load() {
			t.Errorf("%d decode rejections at the edges, %d garbage bodies injected", got, garbage.Load())
		}
		t.Logf("%d acknowledged, %d lost to retry exhaustion, %d shed, rejections by reason %v",
			oracleAgg.Runs, lost.Load(), shed, atEdges)
	}

	for _, e := range edges {
		if err := e.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

func postMerge(t *testing.T, h http.Handler, payload []byte) (*httptest.ResponseRecorder, MergeAck) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/merge", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var ack MergeAck
	if rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(&ack); err != nil {
			t.Fatalf("merge ack: %v", err)
		}
	}
	return rec, ack
}

func testEnvelope(edgeID string, epoch uint64, runs int) []byte {
	agg := report.NewAggregate("p", 3)
	for i := 0; i < runs; i++ {
		r := &report.Report{RunID: uint64(1000*epoch) + uint64(i), Program: "p", Crashed: i == 0, Counters: []uint64{1, 0, uint64(i)}}
		if err := agg.Fold(r); err != nil {
			panic(err)
		}
	}
	return encodeStateImage(mergeMagic, &stateImage{
		edgeID:      edgeID,
		epoch:       epoch,
		program:     "p",
		numCounters: 3,
		aggRaw:      agg.EncodeStats(),
	})
}

// TestMergeEpochDedupe pins the exactly-once contract: replaying an
// already-acknowledged epoch (a push whose ack was lost in transit)
// acks again without folding, and stale epochs never regress the
// cursor.
func TestMergeEpochDedupe(t *testing.T) {
	root := NewServer("p", 3, AggregateOnly)
	root.AcceptMerges = true
	h := root.Handler()

	rec, ack := postMerge(t, h, testEnvelope("e1", 1, 5))
	if rec.Code != http.StatusOK || ack.Duplicate {
		t.Fatalf("first epoch: %d, dup=%v", rec.Code, ack.Duplicate)
	}
	// Verbatim replay: acked as duplicate, not folded.
	rec, ack = postMerge(t, h, testEnvelope("e1", 1, 5))
	if rec.Code != http.StatusOK || !ack.Duplicate {
		t.Fatalf("replayed epoch: %d, dup=%v", rec.Code, ack.Duplicate)
	}
	if got := root.Aggregate().Runs; got != 5 {
		t.Fatalf("runs after replay: %d, want 5 (epoch folded twice)", got)
	}

	// The next epoch folds normally.
	rec, ack = postMerge(t, h, testEnvelope("e1", 2, 7))
	if rec.Code != http.StatusOK || ack.Duplicate {
		t.Fatalf("second epoch: %d, dup=%v", rec.Code, ack.Duplicate)
	}
	// A stale epoch arriving late is also a duplicate.
	if _, ack = postMerge(t, h, testEnvelope("e1", 1, 5)); !ack.Duplicate {
		t.Fatal("stale epoch folded")
	}
	// Another edge has its own cursor.
	if rec, ack = postMerge(t, h, testEnvelope("e2", 1, 3)); rec.Code != http.StatusOK || ack.Duplicate {
		t.Fatalf("other edge epoch 1: %d, dup=%v", rec.Code, ack.Duplicate)
	}
	if got := root.Aggregate().Runs; got != 15 {
		t.Fatalf("runs: %d, want 15", got)
	}
	if got := root.m.mergeDuplicates.Value(); got != 2 {
		t.Fatalf("collect_merge_duplicates_total = %d, want 2", got)
	}
}

// TestMergeRejectsBadPushes covers the shape-authentication surface of
// /merge: malformed envelopes, wrong method, and program / counter /
// span disagreements are all 4xx rejections that never touch state.
func TestMergeRejectsBadPushes(t *testing.T) {
	root := NewServer("p", 3, AggregateOnly)
	root.AcceptMerges = true
	h := root.Handler()

	expect := func(payload []byte, want int, why string) {
		t.Helper()
		rec, _ := postMerge(t, h, payload)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", why, rec.Code, want)
		}
	}

	expect([]byte("not a merge envelope"), http.StatusBadRequest, "garbage body")
	expect(nil, http.StatusBadRequest, "empty body")

	// Truncated envelope: valid magic, torn payload.
	good := testEnvelope("e1", 1, 2)
	expect(good[:len(good)-3], http.StatusBadRequest, "truncated envelope")

	// Wrong version byte.
	bad := append([]byte{}, good...)
	bad[4] = 99
	expect(bad, http.StatusBadRequest, "wrong version")

	// Program mismatch.
	env := &stateImage{edgeID: "e1", epoch: 1, program: "other", numCounters: 3}
	expect(encodeStateImage(mergeMagic, env), http.StatusBadRequest, "program mismatch")

	// Counter-shape mismatch.
	env = &stateImage{edgeID: "e1", epoch: 1, program: "p", numCounters: 99}
	expect(encodeStateImage(mergeMagic, env), http.StatusBadRequest, "counter mismatch")

	// Span-cardinality mismatch (root has no site spans).
	env = &stateImage{edgeID: "e1", epoch: 1, program: "p", numCounters: 3, numSpans: 4}
	expect(encodeStateImage(mergeMagic, env), http.StatusBadRequest, "span mismatch")

	// Aggregate section disagreeing with the envelope's shape claim.
	wrong := report.NewAggregate("p", 7)
	wrong.Runs = 1
	env = &stateImage{edgeID: "e1", epoch: 1, program: "p", numCounters: 3, aggRaw: wrong.EncodeStats()}
	expect(encodeStateImage(mergeMagic, env), http.StatusBadRequest, "aggregate/envelope shape disagreement")

	// Wrong method.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/merge", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /merge: %d", rec.Code)
	}

	if got := root.Aggregate().Runs; got != 0 {
		t.Fatalf("rejected pushes mutated state: %d runs", got)
	}
	if got := root.m.mergeRejected.Value(); got == 0 {
		t.Fatal("collect_merge_rejected_total not incremented")
	}
}

// TestEdgeStopMidPushLosesNoAcknowledgedReport is the edge half of the
// shutdown-drain contract: reports acknowledged with a 202 while the
// edge is being stopped mid-burst must all reach the root — Stop drains
// the staging rings, then runs a final cut-and-push flush.
func TestEdgeStopMidPushLosesNoAcknowledgedReport(t *testing.T) {
	root := NewServer("p", 3, AggregateOnly)
	root.AcceptMerges = true
	rootAddr, err := root.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Stop()

	edge := newTestEdge(t, rootAddr, "edge-stop")
	edge.Federation.Interval = 2 * time.Millisecond // push continuously under the burst
	edgeAddr, err := edge.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + edgeAddr

	// A batch whose connection died mid-request is undetermined: the
	// edge may have folded it and closed the connection before the 202
	// made it back. Each worker stops at its first error, so at most one
	// batch per worker is in that state.
	var acked, undetermined atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 5 * time.Second}
			for seq := 0; seq < 100000; seq++ {
				reps := make([]*report.Report, 8)
				for j := range reps {
					reps[j] = mkReport(uint64(w)<<32|uint64(seq*8+j), j == 0)
				}
				resp, err := hc.Post(base+"/reports", "application/octet-stream",
					bytes.NewReader(report.EncodeBatch(reps)))
				if err != nil {
					undetermined.Add(8)
					return // edge gone: the burst outlived Stop
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusAccepted:
					acked.Add(8)
				case http.StatusServiceUnavailable:
					// Shed: not acknowledged, keep going.
				default:
					t.Errorf("unexpected status %d", code)
					return
				}
			}
		}(w)
	}
	time.Sleep(15 * time.Millisecond) // let pushes interleave with ingest
	if err := edge.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	got := root.Aggregate().Runs
	lo, hi := int(acked.Load()), int(acked.Load()+undetermined.Load())
	if got < lo {
		t.Fatalf("root has %d runs, edge acknowledged %d — acked reports lost", got, lo)
	}
	if got > hi {
		t.Fatalf("root has %d runs, at most %d were submitted — reports double-counted", got, hi)
	}
}

// TestRootStopMidMergeNeverDoubleCounts is the root half: killing the
// root while an edge is pushing cannot lose an acked epoch or fold one
// twice. The accounting invariant is
//
//	root runs == runs cut at the edge - runs of pending epochs above
//	             root.mergeSeen[edge]
//
// which fails low if an acked epoch was dropped and fails high if a
// push was folded twice. A pending epoch at or below the root's cursor
// is the lost ack federatePush documents: Shutdown can close a
// keep-alive connection as idle while its next /merge is being read, so
// the root folds the epoch and the ack never leaves.
func TestRootStopMidMergeNeverDoubleCounts(t *testing.T) {
	root := NewServer("p", 3, AggregateOnly)
	root.AcceptMerges = true
	rootAddr, err := root.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	edge := newTestEdge(t, rootAddr, "edge-rootstop")
	edge.Federation.MaxPending = 1 << 10

	// Feed and push concurrently with the root's shutdown: some pushes
	// land, some hit the dying server and stay pending.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := uint64(0)
		for i := 0; i < 40; i++ {
			for j := 0; j < 25; j++ {
				id++
				if err := edge.Submit(mkReport(id, id%5 == 0)); err != nil {
					t.Error(err)
					return
				}
			}
			_ = edge.FederateNow() // failures expected once the root stops
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := root.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// mergeMu is held across both reads: a /merge handler orphaned by
	// that Shutdown race folds and advances the cursor under it.
	root.mergeMu.Lock()
	seen := root.mergeSeen["edge-rootstop"]
	rootRuns := root.Aggregate().Runs
	root.mergeMu.Unlock()

	f := edge.fed
	f.mu.Lock()
	cutRuns := 0
	if f.baseAgg != nil {
		cutRuns = f.baseAgg.Runs
	}
	pendingRuns := 0
	for _, p := range f.pending {
		env, err := decodeMergeEnvelope(p.payload)
		if err != nil {
			t.Fatalf("pending payload corrupt: %v", err)
		}
		if p.epoch <= seen {
			continue
		}
		if env.aggRaw != nil {
			agg, err := report.DecodeAggregateStats(env.aggRaw)
			if err != nil {
				t.Fatalf("pending aggregate corrupt: %v", err)
			}
			pendingRuns += agg.Runs
		}
	}
	f.mu.Unlock()

	if want := cutRuns - pendingRuns; rootRuns != want {
		t.Fatalf("root has %d runs (cursor at epoch %d); edge cut %d with %d above the cursor — want %d",
			rootRuns, seen, cutRuns, pendingRuns, want)
	}
	// The edge itself lost nothing: its own state still covers every
	// acked submission, and Stop (with the root down) keeps the unacked
	// epochs pending rather than dropping them.
	if err := edge.Stop(); err != nil {
		t.Fatal(err)
	}
}
