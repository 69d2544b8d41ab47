package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/collect"
	"cbi/internal/quality"
	"cbi/internal/report"
)

// collectDoc is the JSON document the collect subcommand writes to
// -bench-out: sustained root-collector throughput under a synthetic
// million-client fleet at 1, 2, and 4 edge collectors, plus an
// edge kill/restart scenario exercising spill-to-disk recovery. CI
// gates on IdentityAll (per-cell bit-identity of the root state vs a
// single serial fold of every acknowledged report), SpeedupAt4 >= 2,
// and Recovery.LostAcked == 0.
type collectDoc struct {
	Reports   int `json:"reports_per_cell"`
	BatchSize int `json:"batch_size"`
	Workers   int `json:"workers"`
	Counters  int `json:"counters"`
	// ClientIDSpace is the synthetic-client population the Zipf rate
	// skew draws run IDs from: ~1M distinct possible clients, a few
	// thousand of which appear per cell (heavy hitters dominate, the
	// long tail churns — the paper's deployed-fleet shape).
	ClientIDSpace uint64 `json:"client_id_space"`
	CPUs          int    `json:"cpus"`
	// Gomaxprocs is pinned to at least 8: the
	// cells model many concurrent connections and sleeping clients,
	// which need preemptive OS-thread interleaving even on narrow hosts.
	Gomaxprocs int           `json:"gomaxprocs"`
	Cells      []collectCell `json:"cells"`
	// SpeedupAt4 is the 4-edge root absorption rate over the
	// single-collector baseline — the federation acceptance headline.
	// The root stops decoding, validating, storing, and folding raw
	// reports; it folds compact delta envelopes instead, so its
	// sustained reports/sec scales with the edge tier rather than with
	// its own raw-ingest ceiling.
	SpeedupAt4  float64         `json:"speedup_at_4_edges"`
	IdentityAll bool            `json:"identity_all"`
	Recovery    collectRecovery `json:"recovery"`
}

type collectCell struct {
	// Collectors counts ingest-facing instances: 1 = clients post to
	// the root directly (no federation), N > 1 = N edges federating
	// into a root that serves the merged state.
	Collectors int `json:"collectors"`
	// Accepted counts reports that got a 202 from their collector;
	// every one of them must reach the root's merged state.
	Accepted int `json:"accepted"`
	// RPS is Accepted over the root's on-clock Seconds — the sustained
	// rate at which the root tier absorbs the fleet's reports. In the
	// baseline the root services every raw report itself; federated,
	// its on-clock time is the merge path (edge delta cut + push over
	// real HTTP + root decode/dedupe/fold + ack) while edge raw ingest
	// runs off-clock, the way remote edge machines would.
	RPS     float64 `json:"accepted_per_sec_at_root"`
	Seconds float64 `json:"root_seconds"`
	// FleetSeconds is the end-to-end wall time including the edge
	// tier's raw ingest (equal to Seconds in the baseline). On a
	// one-box bench every tier shares the same CPUs, so this column is
	// reported but not gated: the raw-ingest work is the same total in
	// every cell, only its placement changes.
	FleetSeconds float64 `json:"fleet_seconds"`
	// Identical: the root's aggregate and predicate rankings equal a
	// serial fold of exactly the acknowledged reports — federated delta
	// merges lost nothing, duplicated nothing, reordered nothing that
	// matters.
	Identical bool `json:"identical"`
	// Shed/BackpressureSleeps: 503s issued by the collectors and the
	// client retries that honored Retry-After. Nonzero shed is the
	// point — the cells measure throughput under overload.
	Shed               uint64 `json:"shed"`
	BackpressureSleeps uint64 `json:"backpressure_sleeps"`
	// LostToRetries counts reports dropped client-side after exhausting
	// MaxAttempts; they are excluded from the oracle, so they test the
	// exclusion accounting rather than fail the cell.
	LostToRetries int `json:"lost_to_retry_exhaustion"`
	// DroppedClients simulates fleet clients dying before sending
	// (1/100): generated but never submitted, excluded from the oracle.
	DroppedClients int `json:"dropped_clients"`
	// MalformedInjected garbage payloads (1/200) must be rejected at
	// the ingesting collector and — via quality-digest delta merges —
	// be visible in the root's rejection totals.
	MalformedInjected   int    `json:"malformed_injected"`
	RejectedAtRoot      uint64 `json:"rejected_visible_at_root"`
	DistinctClients     int    `json:"distinct_clients"`
	MergePushes         uint64 `json:"merge_pushes"`
	MergeEpochsAccepted uint64 `json:"merge_requests_at_root"`
}

// collectRecovery is the edge kill/restart cell: an edge with
// -spill-dir enabled is crashed (no graceful drain, no final push)
// after acknowledging reports it has not yet federated; a new process
// on the same spill directory must replay the log, resume the same
// edge identity and epoch cursor, and deliver every acknowledged
// report to the root exactly once.
type collectRecovery struct {
	AckedBeforePush int  `json:"acked_before_first_push"`
	AckedAfterPush  int  `json:"acked_after_first_push"`
	LostAcked       int  `json:"lost_acked"`
	Identical       bool `json:"identical"`
	// EdgeIDRestored: the restarted process presented the same edge
	// identity, so the root tracks one edge, not two.
	EdgeIDRestored bool `json:"edge_id_restored"`
	// ReplayedFromLog is how many reports the restart recovered from
	// the append-only spill log (acked after the last snapshot).
	ReplayedFromLog uint64 `json:"replayed_from_log"`
}

const (
	collectCounters  = 1024 // dense: raw ingest carries real decode + fold weight
	collectTemplates = 200
	collectReports   = 24576
	collectWorkers   = 32
	collectBatch     = 16
	collectRing      = 256
	collectRounds    = 24      // merge cut-and-push cycles per federated cell
	collectClients   = 1 << 20 // ~1M synthetic client IDs
)

// collectTemplate is a precomputed report body: the load generator
// reuses a fixed pool of dense counter vectors so the measured work is
// wire decoding and folding, not generator-side RNG.
type collectTemplate struct {
	counters []uint64
	crashed  bool
}

func collectWorkload(rng *rand.Rand) []collectTemplate {
	tmpl := make([]collectTemplate, collectTemplates)
	for i := range tmpl {
		c := make([]uint64, collectCounters)
		for j := range c {
			c[j] = uint64(rng.Intn(50) + 1)
		}
		tmpl[i] = collectTemplate{counters: c, crashed: rng.Intn(10) < 3}
	}
	return tmpl
}

// newCollectInstance builds one collector in the bench's fixed
// configuration: one shard, one folder, a small 256-slot staging ring
// with immediate shed (so fleet bursts genuinely trigger 503 +
// Retry-After), manual-tick quality engine, and store mode — the
// deployment default, where the fold path retains report bodies. In
// the federated cells the bodies stay at the ingesting edge and only
// sufficient statistics move upstream. root instances additionally
// accept /merge pushes; edge instances federate into parent.
func newCollectInstance(root bool, parent string) *collect.Server {
	srv := collect.NewServer("collect-bench", collectCounters, collect.StoreAll)
	srv.ExposeTelemetry = false
	srv.Shards = 1
	srv.StageCapacity = collectRing
	srv.StageWait = -1 // shed immediately: the cells measure back-pressure throughput
	srv.Quality = quality.New(quality.Config{Interval: -1})
	if root {
		srv.AcceptMerges = true
	}
	if parent != "" {
		// The bench drives cuts itself (FederateNow at timed points), so
		// the background cadence is parked out of the way.
		srv.Federation = &collect.Federation{Parent: parent, Interval: time.Hour}
	}
	return srv
}

// submitWithRetry posts one pre-encoded batch body to a collector
// handler, honoring shed back-pressure the way a fleet client does:
// on 503 it parses Retry-After (delay-seconds), caps it, sleeps with
// up-only jitter, and retries up to maxAttempts. It reports whether
// the batch was accepted and how many back-pressure sleeps it took.
func submitWithRetry(h http.Handler, path string, body []byte, rng *rand.Rand) (accepted bool, sleeps int) {
	const maxAttempts = 10
	const retryAfterCap = 150 * time.Millisecond
	for attempt := 0; attempt < maxAttempts; attempt++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted:
			return true, sleeps
		case http.StatusServiceUnavailable:
			delay := retryAfterCap
			if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err == nil {
				if d := time.Duration(secs) * time.Second; d < delay {
					delay = d
				}
			}
			sleeps++
			time.Sleep(time.Duration(float64(delay) * (1.0 + 0.5*rng.Float64())))
		default:
			return false, sleeps // 4xx: final
		}
	}
	return false, sleeps
}

// collectWorker is one synthetic-fleet worker's persistent state: its
// RNG, its Zipf client sampler, and its per-collector client-side
// batch buffers, carried across measurement rounds.
type collectWorker struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	batchTmpl [][]int
	batchReps [][]*report.Report

	credits   map[int]int // template index -> acked submissions
	clients   map[uint64]struct{}
	sleeps    int
	lost      int
	dropped   int
	malformed int
}

// ship posts one buffered batch and credits exactly the reports the
// collector acknowledged; a batch lost to retry exhaustion is excluded
// from the oracle.
func (cw *collectWorker) ship(h http.Handler, e int) {
	ok, sleeps := submitWithRetry(h, "/reports", report.EncodeBatch(cw.batchReps[e]), cw.rng)
	cw.sleeps += sleeps
	if ok {
		for _, ti := range cw.batchTmpl[e] {
			cw.credits[ti]++
		}
	} else {
		cw.lost += len(cw.batchTmpl[e])
	}
	cw.batchTmpl[e], cw.batchReps[e] = nil, nil
}

// round submits n fleet reports: Zipf-skewed client IDs, 1/100 clients
// dying before sending, 1/200 corrupt payloads, batches of 16 to the
// client's hash-assigned collector with 503/Retry-After honoring.
func (cw *collectWorker) round(tmpl []collectTemplate, handlers []http.Handler, n int) {
	for i := 0; i < n; i++ {
		if cw.rng.Intn(200) == 0 {
			// A corrupt client build ships garbage; the collector must
			// reject it and the rejection must surface at the root.
			req := httptest.NewRequest(http.MethodPost, "/report",
				bytes.NewReader([]byte("not a report")))
			handlers[cw.rng.Intn(len(handlers))].ServeHTTP(httptest.NewRecorder(), req)
			cw.malformed++
		}
		cid := cw.zipf.Uint64() + 1
		cw.clients[cid] = struct{}{}
		if cw.rng.Intn(100) == 0 {
			cw.dropped++ // client died before sending
			continue
		}
		t := cw.rng.Intn(len(tmpl))
		h := fnv.New64a()
		var b [8]byte
		for k := range b {
			b[k] = byte(cid >> (8 * k))
		}
		h.Write(b[:])
		e := int(h.Sum64() % uint64(len(handlers)))
		cw.batchTmpl[e] = append(cw.batchTmpl[e], t)
		cw.batchReps[e] = append(cw.batchReps[e], &report.Report{
			RunID:    cid,
			Program:  "collect-bench",
			Crashed:  tmpl[t].crashed,
			Counters: tmpl[t].counters,
		})
		if len(cw.batchTmpl[e]) == collectBatch {
			cw.ship(handlers[e], e)
		}
	}
}

// collectCellRun drives the synthetic fleet against one topology and
// measures sustained root absorption. edges == 0 is the baseline: the
// root itself services the whole fleet, so its on-clock time is the
// full ingest. With edges > 0 the fleet is serviced by the edge tier —
// which in deployment is other machines, so edge ingest runs off the
// root's clock here — and the root's on-clock time covers the merge
// path only: per-round delta cut + push over real HTTP + root-side
// decode, dedupe, and fold, down to the ack. Client traffic is
// identical in every cell and goes through the in-process handler
// stack, as in the ingest bench.
func collectCellRun(tmpl []collectTemplate, edges int) (collectCell, error) {
	cell := collectCell{Collectors: edges}
	if edges == 0 {
		cell.Collectors = 1
	}

	root := newCollectInstance(true, "")
	rootURL, err := root.Start("127.0.0.1:0")
	if err != nil {
		return cell, err
	}
	defer root.Stop()

	var ingest []*collect.Server // the instances clients post to
	var handlers []http.Handler
	if edges == 0 {
		ingest = []*collect.Server{root}
		handlers = []http.Handler{root.Handler()}
	} else {
		for i := 0; i < edges; i++ {
			e := newCollectInstance(false, "http://"+rootURL)
			defer e.Stop()
			ingest = append(ingest, e)
			handlers = append(handlers, e.Handler())
		}
	}

	workers := make([]*collectWorker, collectWorkers)
	for w := range workers {
		rng := rand.New(rand.NewSource(*seed*1000 + int64(w)))
		workers[w] = &collectWorker{
			rng:       rng,
			zipf:      rand.NewZipf(rng, 1.2, 1, collectClients-1),
			batchTmpl: make([][]int, len(ingest)),
			batchReps: make([][]*report.Report, len(ingest)),
			credits:   map[int]int{},
			clients:   map[uint64]struct{}{},
		}
	}
	perRound := collectReports / collectWorkers / collectRounds

	// federateAll cuts and pushes every edge concurrently, on the clock.
	federateAll := func() error {
		t := time.Now()
		errs := make([]error, len(ingest))
		var wg sync.WaitGroup
		for i, e := range ingest {
			if e == root {
				continue
			}
			wg.Add(1)
			go func(i int, e *collect.Server) {
				defer wg.Done()
				errs[i] = e.FederateNow()
			}(i, e)
		}
		wg.Wait()
		cell.Seconds += time.Since(t).Seconds()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	t0 := time.Now()
	for r := 0; r < collectRounds; r++ {
		var wg sync.WaitGroup
		for _, cw := range workers {
			wg.Add(1)
			go func(cw *collectWorker) {
				defer wg.Done()
				cw.round(tmpl, handlers, perRound)
			}(cw)
		}
		wg.Wait()
		if edges > 0 {
			if err := federateAll(); err != nil {
				return cell, err
			}
		}
	}
	// Tail: ship every worker's partial batches, then flush the tree so
	// the root state is complete before the clocks stop.
	var wg sync.WaitGroup
	for _, cw := range workers {
		wg.Add(1)
		go func(cw *collectWorker) {
			defer wg.Done()
			for e := range cw.batchTmpl {
				if len(cw.batchTmpl[e]) > 0 {
					cw.ship(handlers[e], e)
				}
			}
		}(cw)
	}
	wg.Wait()
	if edges > 0 {
		if err := federateAll(); err != nil {
			return cell, err
		}
		cell.FleetSeconds = time.Since(t0).Seconds() - cell.Seconds
	}
	tDrain := time.Now()
	rootAgg := root.Aggregate() // drain barrier: root folds all complete here
	cell.Seconds += time.Since(tDrain).Seconds()
	if edges == 0 {
		cell.Seconds = time.Since(t0).Seconds()
		cell.FleetSeconds = cell.Seconds
	}

	credits := map[int]int{}
	distinct := map[uint64]struct{}{}
	for _, cw := range workers {
		for t, n := range cw.credits {
			credits[t] += n
			cell.Accepted += n
		}
		for c := range cw.clients {
			distinct[c] = struct{}{}
		}
		cell.BackpressureSleeps += uint64(cw.sleeps)
		cell.LostToRetries += cw.lost
		cell.DroppedClients += cw.dropped
		cell.MalformedInjected += cw.malformed
	}
	cell.DistinctClients = len(distinct)
	cell.RPS = float64(cell.Accepted) / cell.Seconds
	for _, srv := range ingest {
		cell.Shed += srv.Registry().Counter("collect_reports_shed_total").Value()
		if srv != root {
			cell.MergePushes += srv.Registry().Counter("collect_merge_pushes_total").Value()
		}
	}
	cell.MergeEpochsAccepted = root.Registry().Counter("collect_merge_requests_total").Value()

	// The oracle folds exactly the acknowledged multiset serially;
	// reports are order-free sufficient statistics, so the root's
	// merged state must match bit for bit.
	oracleAgg := report.NewAggregate("collect-bench", collectCounters)
	oracleAcc := score.NewAccum(collectCounters, nil)
	for t, n := range credits {
		rep := &report.Report{
			RunID: 1, Program: "collect-bench",
			Crashed: tmpl[t].crashed, Counters: tmpl[t].counters,
		}
		for i := 0; i < n; i++ {
			if err := oracleAgg.Fold(rep); err != nil {
				return cell, err
			}
			if err := oracleAcc.Fold(rep); err != nil {
				return cell, err
			}
		}
	}
	rootAcc := root.ScoreState()
	cell.Identical = reflect.DeepEqual(rootAgg, oracleAgg) &&
		rootAcc.Runs == oracleAcc.Runs &&
		reflect.DeepEqual(score.Rank(rootAcc.Predicates()), score.Rank(oracleAcc.Predicates()))

	// Quality-digest propagation: rejections recorded at the edges must
	// be visible in the root's merged totals.
	d := root.Quality.TotalsDigest()
	for _, n := range d.Rejected {
		cell.RejectedAtRoot += n
	}
	if cell.RejectedAtRoot < uint64(cell.MalformedInjected) {
		cell.Identical = false
	}
	return cell, nil
}

// collectRecoveryRun is the kill/restart cell: crash an edge that has
// acknowledged reports beyond its last federation push, restart it on
// the same spill directory, and require the root to end bit-identical
// to the serial fold of every acknowledged report.
func collectRecoveryRun(tmpl []collectTemplate) (collectRecovery, error) {
	var rec collectRecovery
	dir, err := os.MkdirTemp("", "cbi-collect-bench-spill")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)
	spillDir := filepath.Join(dir, "edge1")

	root := newCollectInstance(true, "")
	rootURL, err := root.Start("127.0.0.1:0")
	if err != nil {
		return rec, err
	}
	defer root.Stop()

	newEdge := func() *collect.Server {
		e := newCollectInstance(false, "http://"+rootURL)
		e.Federation.Interval = time.Hour // deterministic: cuts happen only via FederateNow
		e.SpillDir = spillDir
		return e
	}

	oracleAgg := report.NewAggregate("collect-bench", collectCounters)
	rng := rand.New(rand.NewSource(*seed + 99))
	postAcked := func(h http.Handler, n int) (int, error) {
		acked := 0
		for i := 0; i < n; i++ {
			t := rng.Intn(len(tmpl))
			rep := &report.Report{
				RunID: uint64(i + 1), Program: "collect-bench",
				Crashed: tmpl[t].crashed, Counters: tmpl[t].counters,
			}
			req := httptest.NewRequest(http.MethodPost, "/report", bytes.NewReader(rep.Encode()))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code == http.StatusAccepted {
				acked++
				if err := oracleAgg.Fold(rep); err != nil {
					return acked, err
				}
			}
		}
		return acked, nil
	}

	edge := newEdge()
	h := edge.Handler()
	if rec.AckedBeforePush, err = postAcked(h, 1000); err != nil {
		return rec, err
	}
	if err := edge.FederateNow(); err != nil {
		return rec, err
	}
	// These are acknowledged but never pushed: they exist only in the
	// edge's spill log when the process dies.
	if rec.AckedAfterPush, err = postAcked(h, 1000); err != nil {
		return rec, err
	}
	edge.Crash() // no drain, no final push, no snapshot

	edge2 := newEdge()
	h2 := edge2.Handler() // triggers init: state restore + log replay
	_ = h2
	rec.ReplayedFromLog = edge2.Registry().Counter("collect_spill_replayed_total").Value()
	if err := edge2.FederateNow(); err != nil {
		return rec, err
	}
	defer edge2.Stop()

	rootAgg := root.Aggregate()
	rec.LostAcked = oracleAgg.Runs - rootAgg.Runs
	rec.Identical = reflect.DeepEqual(rootAgg, oracleAgg)
	rec.EdgeIDRestored = root.Registry().Gauge("collect_merge_edges").Value() == 1
	return rec, nil
}

// collectBench measures the federated collector tree under a synthetic
// million-client fleet and writes BENCH_collect.json.
func collectBench() error {
	header("Federated collection: root throughput vs collector count, million-client fleet")
	doc := collectDoc{
		Reports:       collectReports,
		BatchSize:     collectBatch,
		Workers:       collectWorkers,
		Counters:      collectCounters,
		ClientIDSpace: collectClients,
		CPUs:          runtime.NumCPU(),
		IdentityAll:   true,
	}
	// Same rationale as the ingest bench: sleeping clients and many
	// concurrent connections need preemptive interleaving even on
	// narrow hosts. Restored on exit.
	prev := runtime.GOMAXPROCS(0)
	if prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	doc.Gomaxprocs = runtime.GOMAXPROCS(0)

	tmpl := collectWorkload(rand.New(rand.NewSource(*seed)))

	fmt.Printf("%d reports/cell from %d workers (batch %d), %d-counter dense templates, ~%dk-client Zipf fleet:\n\n",
		collectReports, collectWorkers, collectBatch, collectCounters, collectClients/1000)
	fmt.Printf("%10s %9s %12s %10s %10s %8s %9s %10s %10s %5s\n",
		"collectors", "accepted", "rep/s @root", "root-secs", "fleet-secs", "shed", "backpres", "malformed", "rej@root", "ident")
	var singleRPS float64
	for _, edges := range []int{0, 2, 4} {
		cell, err := collectCellRun(tmpl, edges)
		if err != nil {
			return err
		}
		if edges == 0 {
			singleRPS = cell.RPS
		} else if edges == 4 && singleRPS > 0 {
			doc.SpeedupAt4 = cell.RPS / singleRPS
		}
		if !cell.Identical {
			doc.IdentityAll = false
		}
		doc.Cells = append(doc.Cells, cell)
		fmt.Printf("%10d %9d %12.0f %10.3f %10.3f %8d %9d %10d %10d %5v\n",
			cell.Collectors, cell.Accepted, cell.RPS, cell.Seconds, cell.FleetSeconds,
			cell.Shed, cell.BackpressureSleeps,
			cell.MalformedInjected, cell.RejectedAtRoot, cell.Identical)
	}
	fmt.Printf("\n4-edge speedup over single collector: %.2fx (gate: >= 2x)\n", doc.SpeedupAt4)

	rec, err := collectRecoveryRun(tmpl)
	if err != nil {
		return err
	}
	doc.Recovery = rec
	fmt.Printf("\nedge kill/restart (spill-to-disk): %d acked then pushed, %d acked then crashed\n",
		rec.AckedBeforePush, rec.AckedAfterPush)
	fmt.Printf("  replayed from log: %d; lost acked: %d; root identical: %v; edge identity restored: %v\n",
		rec.ReplayedFromLog, rec.LostAcked, rec.Identical, rec.EdgeIDRestored)

	return writeBenchDoc("BENCH_collect.json", &doc)
}
