// Package collect implements the remote-collection side of the
// infrastructure: an HTTP server that receives encoded run reports from
// deployed clients and either stores them or folds them into sufficient
// statistics, and the client used by instrumented runs to phone home.
//
// Ingest is striped: reports hash on RunID onto independent shards, each
// holding its own aggregate (and report store in StoreAll mode), so
// concurrent submissions scale with cores instead of serializing on one
// mutex. Shards are merged lazily when a snapshot is taken — legal
// because the §2.5 feedback statistics are order-free. Clients may POST
// one report per request (/report) or amortize the round-trip by
// batching many reports into a single /reports request.
//
// HTTP ingest is staged (see staging.go): both endpoints decode and hand
// the request to one take-in function (takeIn) that validates it and
// enqueues it into a ring buffer; background folders do the folding in
// lock-amortized batches, and overload is answered with 503 +
// Retry-After instead of unbounded queueing. The result is bit-identical
// to a serial fold of the acknowledged reports, the oracle the tests
// keep on their side.
//
// The server always exposes the operational surface a deployed collector
// needs: Prometheus metrics at /metrics, a liveness/drain signal at
// /healthz, and per-request ingest counters and latency histograms
// (package telemetry).
package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
)

// Mode selects how the server retains data.
type Mode int

const (
	// StoreAll keeps every report (needed for logistic-regression
	// training, which consumes per-run feature vectors).
	StoreAll Mode = iota
	// AggregateOnly folds each report into sufficient statistics and
	// discards it (§5's privacy posture: a compromised collector cannot
	// reveal any individual trace).
	AggregateOnly
)

// ShutdownTimeout bounds how long Stop waits for in-flight report POSTs
// to drain before forcing connections closed.
const ShutdownTimeout = 5 * time.Second

// MaxBodyBytes is the largest request body /report and /reports accept;
// anything bigger is rejected with 413 Request Entity Too Large.
const MaxBodyBytes = 64 << 20

// maxShards caps the stripe count; beyond this the fixed cost of
// merging shards on snapshot outweighs any contention win.
const maxShards = 256

// serverMetrics caches the hot-path metric handles so request handling
// never takes the registry lock.
type serverMetrics struct {
	accepted        *telemetry.Counter
	rejectedMethod  *telemetry.Counter
	rejectedRead    *telemetry.Counter
	rejectedDecode  *telemetry.Counter
	rejectedFold    *telemetry.Counter
	rejectedSize    *telemetry.Counter
	quarantined     *telemetry.Counter
	batchesAccepted *telemetry.Counter
	batchReportsIn  *telemetry.Counter
	batchReports    *telemetry.Histogram
	bytesIngested   *telemetry.Counter
	requestBytes    *telemetry.Histogram
	reportBytes     *telemetry.Histogram
	decodeSeconds   *telemetry.Histogram
	foldSeconds     *telemetry.Histogram
	reportNonzeros  *telemetry.Histogram
	// Staged-ingest instruments: reports shed by back-pressure, enqueues
	// that had to wait for ring space, and reports folded per
	// lock acquisition (the batching the staged path exists to buy).
	shed         *telemetry.Counter
	stageWaits   *telemetry.Counter
	stageBatches *telemetry.Histogram
	// Federation instruments: the root's /merge endpoint (requests,
	// reports carried, epoch duplicates, rejections) and the edge's push
	// loop (pushes, failures).
	mergeRequests     *telemetry.Counter
	mergeReports      *telemetry.Counter
	mergeDuplicates   *telemetry.Counter
	mergeRejected     *telemetry.Counter
	mergePushes       *telemetry.Counter
	mergePushFailures *telemetry.Counter
	// Spill instruments: journal appends/bytes, snapshots, reports
	// replayed on restart, and persistence errors.
	spillAppends   *telemetry.Counter
	spillBytes     *telemetry.Counter
	spillSnapshots *telemetry.Counter
	spillReplayed  *telemetry.Counter
	spillErrors    *telemetry.Counter
}

// BatchSizeBuckets are histogram buckets for reports-per-batch.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	return serverMetrics{
		accepted:        reg.Counter("collect_reports_accepted_total"),
		rejectedMethod:  reg.Counter(`collect_reports_rejected_total{reason="method"}`),
		rejectedRead:    reg.Counter(`collect_reports_rejected_total{reason="read"}`),
		rejectedDecode:  reg.Counter(`collect_reports_rejected_total{reason="decode"}`),
		rejectedFold:    reg.Counter(`collect_reports_rejected_total{reason="fold"}`),
		rejectedSize:    reg.Counter(`collect_reports_rejected_total{reason="too-large"}`),
		quarantined:     reg.Counter("collect_reports_quarantined_total"),
		batchesAccepted: reg.Counter("collect_batches_accepted_total"),
		batchReportsIn:  reg.Counter("collect_batch_reports_total"),
		batchReports:    reg.Histogram("collect_batch_reports", BatchSizeBuckets),
		bytesIngested:   reg.Counter("collect_bytes_ingested_total"),
		requestBytes:    reg.Histogram("collect_request_bytes", telemetry.SizeBuckets),
		reportBytes:     reg.Histogram("collect_report_bytes", telemetry.SizeBuckets),
		decodeSeconds:   reg.Histogram("collect_decode_seconds", telemetry.DefBuckets),
		foldSeconds:     reg.Histogram("collect_fold_seconds", telemetry.DefBuckets),
		reportNonzeros:  reg.Histogram("collect_report_nonzeros", telemetry.NonzeroBuckets),
		shed:            reg.Counter("collect_reports_shed_total"),
		stageWaits:      reg.Counter("collect_stage_waits_total"),
		stageBatches:    reg.Histogram("collect_stage_fold_batch", BatchSizeBuckets),

		mergeRequests:     reg.Counter("collect_merge_requests_total"),
		mergeReports:      reg.Counter("collect_merge_reports_total"),
		mergeDuplicates:   reg.Counter("collect_merge_duplicates_total"),
		mergeRejected:     reg.Counter("collect_merge_rejected_total"),
		mergePushes:       reg.Counter("collect_merge_pushes_total"),
		mergePushFailures: reg.Counter("collect_merge_push_failures_total"),

		spillAppends:   reg.Counter("collect_spill_appends_total"),
		spillBytes:     reg.Counter("collect_spill_bytes_total"),
		spillSnapshots: reg.Counter("collect_spill_snapshots_total"),
		spillReplayed:  reg.Counter("collect_spill_replayed_total"),
		spillErrors:    reg.Counter("collect_spill_errors_total"),
	}
}

// ingestShard is one stripe of the collector state: a mutex narrow
// enough that concurrent submissions for different run IDs rarely meet.
type ingestShard struct {
	mu  sync.Mutex
	db  *report.DB
	agg *report.Aggregate
	// acc holds the live-triage scoring statistics (nil unless the server
	// has a Monitor), folded under the same lock as agg so each report is
	// atomic within its shard.
	acc *score.Accum
}

// Server is the central collection endpoint.
type Server struct {
	mode Mode

	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the same
	// mux (default false; set before calling Handler or Start). Off by
	// default because profile endpoints can stall a loaded collector and
	// leak operational detail.
	EnablePprof bool

	// Tracer, when set, records server-side ingest spans: each /report
	// or /reports POST gets a server.ingest span with server.decode and
	// server.fold children, continuing the client's trace when the
	// request carries an X-CBI-Trace header. Set before traffic arrives.
	Tracer *trace.Collector

	// Shards is the number of ingest stripes, rounded up to a power of
	// two (default: smallest power of two ≥ NumCPU, capped at 256). Set
	// before the first submission; later writes are ignored.
	Shards int

	// Monitor, when set before the first submission (or Handler call),
	// enables the live triage console: the server maintains incremental
	// scoring statistics per shard, notifies the monitor as reports fold,
	// and mounts /rankings, /watch (SSE), and /dashboard.
	Monitor *monitor.Monitor

	// Sites gives the instrumented program's counter spans so live scores
	// have site context (Context(P)); nil degrades to span-free scoring,
	// exactly like score.Score with nil spans. Set alongside Monitor.
	Sites []score.SiteSpan

	// Quality, when set before the first submission (or Handler call),
	// enables the ingest-quality engine: every accept/reject folds into
	// its counters and density check, /quality and /debug/badreports are
	// mounted, and (with a Monitor) anomaly/recovered events ride the
	// /watch SSE stream. All engine calls are nil-safe, so the hot path
	// pays one nil check when disabled.
	Quality *quality.Engine

	// StageCapacity is the per-shard staging-ring size in reports,
	// rounded up to a power of two (default 1024). A /reports batch
	// longer than the ring could never be reserved, so it alone is
	// folded by its handler instead of being shed forever.
	StageCapacity int

	// StageWait bounds how long an enqueue waits for ring space before
	// the request is shed with 503 + Retry-After (default 100ms);
	// negative sheds as soon as the initial spin fails.
	StageWait time.Duration

	// AcceptMerges makes this server a federation root (or mid-tier):
	// Handler mounts /merge, and edge collectors push delta merges of
	// their sufficient statistics there (see federate.go). Set before
	// the first submission or Handler call.
	AcceptMerges bool

	// Federation, when set, makes this server an edge of a collector
	// tree: a background loop periodically cuts a delta of everything
	// folded since the last cut and pushes it to Federation.Parent,
	// with epoch cursors for exactly-once folding. Implies live scoring
	// accumulators (the root serves /rankings from merged state). Set
	// before the first submission or Handler call.
	Federation *Federation

	// SpillDir enables spill-to-disk persistence (see spill.go): every
	// acknowledged report is journaled before its 202, and state
	// snapshots make restart recovery cheap. Empty disables. Set before
	// the first submission or Handler call.
	SpillDir string

	program     string
	numCounters int
	// shape is the expected counter-vector length; 0 until an
	// "accept any" server sees its first non-empty report, after which
	// every shard folds against the same fixed shape.
	shape atomic.Int64

	initOnce  sync.Once
	shardMask uint64
	shards    []ingestShard

	// Staged-ingest state, allocated by init; see staging.go.
	rings         []stageRing
	stageCap      int
	stageWaitFor  time.Duration
	stageRR       atomic.Uint64 // round-robin ring cursor
	stageStop     chan struct{}
	stageStopOnce sync.Once
	stageStopped  atomic.Bool
	stageWG       sync.WaitGroup

	// Cached /stats response; see handleStats.
	statsMu    sync.Mutex
	statsAt    time.Time
	statsCache Stats

	// Federation runtime (nil unless Federation is set); see federate.go.
	fed *fedState
	// Root-side merge dedup: last epoch folded per edge, under mergeMu
	// (which also serializes whole merges — they are rare and coarse).
	mergeMu   sync.Mutex
	mergeSeen map[string]uint64
	// Spill runtime (nil unless SpillDir is set); see spill.go.
	spill *spillState

	reg      *telemetry.Registry
	health   telemetry.Health
	m        serverMetrics
	httpReqs sync.Map // "endpoint\x00code" -> *telemetry.Counter

	httpServer *http.Server
	listener   net.Listener
}

// NewServer creates a collection server for one program build. Each
// server owns its own telemetry registry (see Registry) so concurrent
// servers — and tests — do not share counters.
func NewServer(program string, numCounters int, mode Mode) *Server {
	reg := telemetry.NewRegistry()
	s := &Server{
		mode:        mode,
		program:     program,
		numCounters: numCounters,
		reg:         reg,
		m:           newServerMetrics(reg),
	}
	s.shape.Store(int64(numCounters))
	return s
}

// init lazily allocates the shard array, honoring a Shards override set
// after NewServer but before the first submission.
func (s *Server) init() {
	s.initOnce.Do(func() {
		n := s.Shards
		if n <= 0 {
			n = runtime.NumCPU()
		}
		if n > maxShards {
			n = maxShards
		}
		if n&(n-1) != 0 {
			n = 1 << bits.Len(uint(n))
		}
		s.shardMask = uint64(n - 1)
		s.shards = make([]ingestShard, n)
		for i := range s.shards {
			s.shards[i].db = report.NewDB(s.program, s.numCounters)
			s.shards[i].agg = report.NewAggregate(s.program, s.numCounters)
			if s.accumsEnabled() {
				s.shards[i].acc = score.NewAccum(s.numCounters, s.Sites)
			}
		}
		s.reg.Gauge("collect_shards").Set(float64(n))
		// Recover persisted state before staging and the monitor exist:
		// replay folds directly into the freshly allocated shards.
		s.initSpill()
		// Before the Monitor starts: its snapshot worker reaches the drain
		// barrier through ScoreState, so the rings and folders must exist
		// first.
		s.initStaging()
		if s.Monitor != nil {
			s.Monitor.Bind(s, s.reg)
			s.Monitor.Start()
		}
		if sp := s.spill; sp != nil && sp.replayed > 0 {
			// The replay predates Monitor.Start, so notify now that the
			// snapshot worker exists.
			s.Monitor.ReportsFolded(sp.replayed)
		}
		if s.Quality != nil {
			s.Quality.Bind(s.reg)
			if s.Monitor != nil {
				s.Quality.Events = s.Monitor
			}
			s.Quality.Start()
		}
		s.initFederation()
		s.startSpillLoop()
	})
}

// accumsEnabled reports whether shards keep live scoring accumulators:
// for the local monitor, for federation deltas (the root serves
// /rankings from merged accumulators), or for merged-in edge state.
func (s *Server) accumsEnabled() bool {
	return s.Monitor != nil || s.Federation != nil || s.AcceptMerges
}

// shardIndex picks the stripe for a run ID (Fibonacci hashing so
// sequential fleet IDs spread evenly).
func (s *Server) shardIndex(runID uint64) uint64 {
	return (runID * 0x9E3779B97F4A7C15) >> 32 & s.shardMask
}

func (s *Server) shardFor(runID uint64) *ingestShard {
	return &s.shards[s.shardIndex(runID)]
}

// Registry returns the server's telemetry registry (scraped at /metrics).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Health returns the server's lifecycle flag (served at /healthz).
func (s *Server) Health() *telemetry.Health { return &s.health }

// Handler returns the HTTP handler (also usable without a live listener).
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	mux.Handle("/report", s.instrument("/report", http.HandlerFunc(s.handleReport)))
	mux.Handle("/reports", s.instrument("/reports", http.HandlerFunc(s.handleReports)))
	mux.Handle("/stats", s.instrument("/stats", http.HandlerFunc(s.handleStats)))
	if s.AcceptMerges {
		mux.Handle("/merge", s.instrument("/merge", http.HandlerFunc(s.handleMerge)))
	}
	if s.Monitor != nil {
		mux.Handle("/rankings", s.instrument("/rankings", http.HandlerFunc(s.Monitor.ServeRankings)))
		mux.Handle("/watch", s.instrument("/watch", http.HandlerFunc(s.Monitor.ServeWatch)))
		mux.Handle("/dashboard", s.instrument("/dashboard", http.HandlerFunc(s.Monitor.ServeDashboard)))
	}
	if s.Quality != nil {
		// /quality sits behind the drain barrier too, so its accepted/
		// rejected totals line up with the fold-derived snapshots a
		// caller may fetch next.
		mux.Handle("/quality", s.instrument("/quality", s.drained(http.HandlerFunc(s.Quality.ServeQuality))))
		mux.Handle("/debug/badreports", s.instrument("/debug/badreports", http.HandlerFunc(s.Quality.ServeBadReports)))
	}
	mux.Handle("/metrics", s.instrument("/metrics", s.reg.Handler()))
	mux.Handle("/healthz", s.instrument("/healthz", &s.health))
	if s.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// drained runs the staging drain barrier before the wrapped handler.
func (s *Server) drained(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.drainStaging()
		h.ServeHTTP(w, r)
	})
}

// statusCapture remembers the response code so instrument can label its
// counter. It passes http.Flusher through — /watch streams SSE and dies
// without it.
type statusCapture struct {
	http.ResponseWriter
	code int
}

func (c *statusCapture) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *statusCapture) Write(b []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	return c.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection (readLimited
// sets its read deadline).
func (c *statusCapture) Unwrap() http.ResponseWriter { return c.ResponseWriter }

func (c *statusCapture) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument counts every response on every route — success and error
// paths alike — as collect_http_requests_total{endpoint,code} and times
// each request into collect_handler_seconds{endpoint}. The latency
// histogram uses FineBuckets: the staged ingest handlers answer in
// microseconds, far below DefBuckets' resolution.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	lat := s.reg.Histogram("collect_handler_seconds"+telemetry.Labels("endpoint", endpoint),
		telemetry.FineBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sc := &statusCapture{ResponseWriter: w}
		h.ServeHTTP(sc, r)
		lat.Observe(time.Since(t0).Seconds())
		if sc.code == 0 {
			sc.code = http.StatusOK
		}
		s.countRequest(endpoint, sc.code)
	})
}

// countRequest bumps the per-{endpoint,code} counter, caching handles so
// the steady state never re-renders labels or takes the registry lock.
func (s *Server) countRequest(endpoint string, code int) {
	key := endpoint + "\x00" + strconv.Itoa(code)
	if c, ok := s.httpReqs.Load(key); ok {
		c.(*telemetry.Counter).Inc()
		return
	}
	c := s.reg.Counter("collect_http_requests_total" +
		telemetry.Labels("endpoint", endpoint, "code", strconv.Itoa(code)))
	actual, _ := s.httpReqs.LoadOrStore(key, c)
	actual.(*telemetry.Counter).Inc()
}

// maxBodyPresize caps the buffer readLimited allocates on the word of a
// Content-Length header alone; a longer body grows the buffer as it
// arrives, so a header announcing 64 MiB that never come costs 4.
const maxBodyPresize = 4 << 20

// bodyReadTimeout bounds how long one request body may take to arrive —
// the 30 s after which NewClient's transport gives up on the request
// anyway — so a trickling sender cannot hold a handler for as long as it
// likes. (A var only so a test can shorten it.)
var bodyReadTimeout = 30 * time.Second

// idleTimeout closes keep-alive connections that carry no request. The
// server sets no ReadTimeout or WriteTimeout: /watch streams.
const idleTimeout = 2 * time.Minute

var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)

// readLimited reads a request body of at most MaxBodyBytes within
// bodyReadTimeout, in one buffer sized from Content-Length when the
// header is present (a header that is absent or wrong falls back to a
// growing read). It returns errBodyTooLarge, with what was read, for a
// longer body.
func readLimited(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// Not every writer has a connection to set a deadline on
	// (httptest.NewRecorder answers ErrNotSupported); those cannot trickle.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadTimeout))
	size := int64(0)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyPresize)
	}
	// ReadFrom wants MinRead spare bytes before every read, the one that
	// meets EOF included.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, MaxBodyBytes+1)); err != nil {
		return buf.Bytes(), err
	}
	if buf.Len() > MaxBodyBytes {
		return buf.Bytes(), errBodyTooLarge
	}
	return buf.Bytes(), nil
}

// readBody pulls in a report request body, rejecting oversize payloads
// with 413 instead of silently truncating them into a confusing decode
// error. The bool result reports success.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, ingest *trace.Span) ([]byte, bool) {
	body, err := readLimited(w, r)
	if err == errBodyTooLarge {
		s.m.rejectedSize.Inc()
		s.Quality.ObserveRejected(quality.ReasonTooLarge, body)
		ingest.SetAttr("outcome", "rejected-too-large")
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	if err != nil {
		s.m.rejectedRead.Inc()
		s.Quality.ObserveRejected(quality.ReasonRead, body)
		ingest.SetAttr("outcome", "rejected-read")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	ingest.SetAttr("bytes", strconv.Itoa(len(body)))
	s.m.bytesIngested.Add(uint64(len(body)))
	s.m.requestBytes.Observe(float64(len(body)))
	return body, true
}

// receive is the front both ingest endpoints share: POST only, continue
// the client's trace across the wire (nil-safe throughout: with no
// Tracer every span is nil and records nothing), read the body, decode
// it. batches is what tells the endpoints apart: /reports takes the
// batch framing (report.EncodeBatch) beside the plain single-report one,
// so old clients can be pointed at it unchanged; to /report a batch body
// is a decode error. When ok is false the request has been answered;
// the caller ends the span either way.
func (s *Server) receive(w http.ResponseWriter, r *http.Request, batches bool) (ingest *trace.Span, body []byte, reps []*report.Report, ok bool) {
	s.Quality.ObserveEndpoint(batches)
	if r.Method != http.MethodPost {
		s.m.rejectedMethod.Inc()
		s.Quality.ObserveRejected(quality.ReasonMethod, nil)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, nil, nil, false
	}
	ingest = s.Tracer.ContinueSpan("server.ingest", r.Header.Get(trace.Header))
	if body, ok = s.readBody(w, r, ingest); !ok {
		return ingest, nil, nil, false
	}
	decodeSpan := ingest.StartChild("server.decode")
	t0 := time.Now()
	var err error
	// The decoder is told the counter space, so a frame claiming another
	// is rejected before its vector exists; until an "accept any" server
	// adopts a shape, only the format's own cap applies.
	if shape := int(s.shape.Load()); batches && report.IsBatch(body) {
		reps, err = report.DecodeBatchShaped(body, shape)
	} else {
		var rep *report.Report
		rep, err = report.DecodeShaped(body, shape)
		reps = []*report.Report{rep}
	}
	s.m.decodeSeconds.Observe(time.Since(t0).Seconds())
	decodeSpan.End()
	if err != nil {
		s.m.rejectedDecode.Inc()
		s.Quality.ObserveRejected(quality.ReasonDecode, body)
		ingest.SetAttr("outcome", "rejected-decode")
		http.Error(w, err.Error(), http.StatusBadRequest)
		return ingest, nil, nil, false
	}
	return ingest, body, reps, true
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	ingest, body, reps, ok := s.receive(w, r, false)
	defer ingest.End()
	if !ok {
		return
	}
	rep := reps[0]
	ingest.SetAttr("run_id", strconv.FormatUint(rep.RunID, 10))
	if !s.takeIn(w, ingest, body, reps) {
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// handleReports ingests a batched payload in one round-trip.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	ingest, body, reps, ok := s.receive(w, r, true)
	defer ingest.End()
	if !ok {
		return
	}
	ingest.SetAttr("batch", strconv.Itoa(len(reps)))
	if !s.takeIn(w, ingest, body, reps) {
		return
	}
	s.m.batchesAccepted.Inc()
	s.m.batchReportsIn.Add(uint64(len(reps)))
	s.m.batchReports.Observe(float64(len(reps)))
	w.WriteHeader(http.StatusAccepted)
}

// takeIn is the one way a decoded request enters the collector, a single
// report being a batch of one. It validates the whole request before any
// of it is taken, so a rejected request leaves no partial state behind
// and concurrent batches never half-apply; reserves ring slots for all of
// it in one atomic reservation on a round-robin ring (any ring is as good
// as the run-ID shard: the statistics are order-free and snapshots merge
// every shard, DESIGN §13); journals its frames; and only then does the
// accept-time accounting. The spill gate is held from the reservation to
// the journal append, so no snapshot cuts between them. It answers every
// refusal itself — 400 (fold), 503 + Retry-After (shed), 500 (journal) —
// and returns false; on true the caller owes the 202, which is a durable
// accept: the drain barrier carries the request into every later
// snapshot.
func (s *Server) takeIn(w http.ResponseWriter, ingest *trace.Span, body []byte, reps []*report.Report) bool {
	for _, rep := range reps {
		if err := s.validate(rep); err != nil {
			s.m.rejectedFold.Inc()
			s.Quality.ObserveRejected(quality.ReasonFold, body)
			ingest.SetAttr("outcome", "rejected-fold")
			http.Error(w, err.Error(), http.StatusBadRequest)
			return false
		}
		// Build the sparse cache before the report crosses goroutines:
		// Nonzeros mutates on first call, and after the enqueue both this
		// handler (accounting) and the folder (fold) read the report.
		rep.Nonzeros()
	}
	if s.stageStopped.Load() {
		// No acknowledgment after the drain: the folders are gone, the
		// journal is closed and a federated edge has taken its final cut,
		// so nothing would honour a 202. The sender retries elsewhere.
		s.shed(w, ingest, len(reps))
		return false
	}
	sp := s.spill
	var frames []byte
	if sp != nil {
		// A batch body's frame region is byte-identical to the log framing
		// and splices in verbatim; a plain single-report body gets one
		// frame built around it.
		var isBatch bool
		if frames, isBatch = report.BatchFrames(body); !isBatch {
			frames = frameReport(body)
		}
		sp.gate.RLock()
	}
	taken := true
	if len(reps) <= s.stageCap {
		taken = s.stageEnqueue(&s.rings[s.stageRR.Add(1)&s.shardMask], reps, ingest)
	} else {
		// The one inline fold: a batch longer than a ring could never be
		// reserved, and shedding it would be shedding it forever.
		foldSpan := ingest.StartChild("server.fold")
		for _, rep := range reps {
			if err := s.foldNow(rep); err != nil {
				// Unreachable: every report was validated above.
				panic(fmt.Sprintf("collect: inline fold: %v", err))
			}
		}
		foldSpan.End()
	}
	var spErr error
	if sp != nil {
		if taken {
			spErr = s.spillAppend(frames)
		}
		sp.gate.RUnlock()
	}
	if !taken {
		s.shed(w, ingest, len(reps))
		return false
	}
	if spErr != nil {
		s.spillFail(w, ingest, spErr)
		return false
	}
	for _, rep := range reps {
		s.accountAccepted(rep)
	}
	ingest.SetAttr("outcome", "accepted")
	return true
}

// shed answers a request that was not taken in — its reports found no
// ring space before the back-pressure deadline, or arrived after the
// drain: 503 + Retry-After, counted per report in
// collect_reports_shed_total and observed by the quality engine as a
// rejection (a shed storm trips the reject-surge anomaly). Shedding is
// the overload contract — the collector refuses fast rather than
// queueing without bound, and the client retries the whole batch.
func (s *Server) shed(w http.ResponseWriter, ingest *trace.Span, reports int) {
	s.m.shed.Add(uint64(reports))
	for i := 0; i < reports; i++ {
		s.Quality.ObserveRejected(quality.ReasonShed, nil)
	}
	ingest.SetAttr("outcome", "shed")
	w.Header().Set("Retry-After", shedRetryAfter)
	http.Error(w, "collector overloaded or draining, retry later",
		http.StatusServiceUnavailable)
}

// spillFail answers a request whose reports were taken in (staged or
// folded) but could not be journaled: 500, no acknowledgment. The
// report IS in memory — unstaging it would be worse — so a client retry
// can double-count, degrading this request to at-least-once. That is
// the documented corner of the durability contract (DESIGN §14), paid
// only when the disk itself fails mid-append.
func (s *Server) spillFail(w http.ResponseWriter, ingest *trace.Span, err error) {
	s.m.spillErrors.Inc()
	ingest.SetAttr("outcome", "spill-error")
	http.Error(w, "spill append failed: "+err.Error(), http.StatusInternalServerError)
}

// accountAccepted records the accept-time metrics and quality
// observations for one report, for takeIn and Submit alike. In takeIn it
// runs after the journal append succeeds and before the 202, so
// client-visible accounting (accepted counts, quarantine forensics,
// quality counters) never lags the acknowledgment and never counts a
// request that was refused; only fold latency and the monitor's fold
// notifications happen later, in the folder.
func (s *Server) accountAccepted(rep *report.Report) {
	s.m.accepted.Inc()
	nz := rep.Nonzeros()
	s.m.reportNonzeros.Observe(float64(len(nz)))
	if wire := rep.WireLen(); wire > 0 {
		// Per-report wire size (batch members individually; requests as a
		// whole are collect_request_bytes). In-process submissions have no
		// wire form and are skipped.
		s.m.reportBytes.Observe(float64(wire))
	}
	if rep.Lenient() {
		s.m.quarantined.Inc()
		s.Quality.ObserveQuarantined(rep.RunID, rep.WireLen())
	}
	if s.Quality != nil {
		var total uint64
		for _, c := range nz {
			total += c.Value
		}
		s.Quality.ObserveAccepted(rep.RunID, rep.NumCounters(), rep.WireLen(), len(nz), total, rep.Crashed)
	}
}

// Stats is the JSON summary served at /stats.
type Stats struct {
	Runs    int `json:"runs"`
	Crashes int `json:"crashes"`
	// NumCounters is the counter-vector length the server is folding
	// (0 until an "accept any" server sees its first report).
	NumCounters int `json:"num_counters"`
	// Batches and BatchReports count accepted /reports payloads and the
	// reports they carried.
	Batches      int `json:"batches"`
	BatchReports int `json:"batch_reports"`
	// Live-triage summary (all zero when the server has no Monitor), so
	// scripted runs can poll convergence without parsing the SSE stream.
	monitor.TriageStats
}

// statsMaxAge is the /stats cache lifetime: roughly the monitor's
// snapshot cadence, so pollers see fresh numbers without re-merging
// every shard per GET.
const statsMaxAge = 250 * time.Millisecond

// handleStats serves the run summary. Computing it locks every shard,
// so under heavy polling (dashboards, convergence loops) the response is
// cached and reused until it ages out or the monitor publishes a new
// rankings snapshot; ?fresh=1 forces a recompute, mirroring /rankings.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.init()
	fresh := r.URL.Query().Get("fresh") != ""
	tri := s.Monitor.TriageStats()
	if !fresh {
		s.statsMu.Lock()
		if !s.statsAt.IsZero() && time.Since(s.statsAt) < statsMaxAge &&
			tri.RankingsSnapshots == s.statsCache.RankingsSnapshots {
			st := s.statsCache
			s.statsMu.Unlock()
			writeStats(w, st)
			return
		}
		s.statsMu.Unlock()
	}
	st := s.computeStats(tri)
	s.statsMu.Lock()
	s.statsCache, s.statsAt = st, time.Now()
	s.statsMu.Unlock()
	writeStats(w, st)
}

// computeStats merges every shard into one Stats snapshot, behind the
// staging drain barrier so the counts cover every acknowledged report.
func (s *Server) computeStats(tri monitor.TriageStats) Stats {
	s.drainStaging()
	st := Stats{
		NumCounters:  int(s.shape.Load()),
		Batches:      int(s.m.batchesAccepted.Value()),
		BatchReports: int(s.m.batchReportsIn.Value()),
		TriageStats:  tri,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Runs += sh.agg.Runs
		st.Crashes += sh.agg.Crashes
		sh.mu.Unlock()
	}
	return st
}

func writeStats(w http.ResponseWriter, st Stats) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(st); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// validate checks a report against the server's program and counter
// shape without folding it. An "accept any" server fixes its shape from
// the first non-empty report, atomically, so every shard folds against
// the same expectation.
func (s *Server) validate(rep *report.Report) error {
	if s.program != "" && rep.Program != "" && rep.Program != s.program {
		return fmt.Errorf("report: program %q does not match collector %q", rep.Program, s.program)
	}
	want, n := s.shape.Load(), int64(rep.NumCounters())
	if want == 0 && n > 0 {
		if !s.shape.CompareAndSwap(0, n) {
			want = s.shape.Load()
		} else {
			want = n
		}
	}
	if n != want {
		return fmt.Errorf("report: counter vector length %d, want %d", n, want)
	}
	return nil
}

// Submit folds a report into the server state directly, on the calling
// goroutine (in-process fleets; the HTTP endpoints go through takeIn).
// It records fold latency and the accepted/rejected counters, so every
// ingestion path is measured. Safe for concurrent use: reports stripe
// across shards by run ID.
func (s *Server) Submit(rep *report.Report) error {
	s.init()
	if err := s.foldNow(rep); err != nil {
		s.m.rejectedFold.Inc()
		s.Quality.ObserveRejected(quality.ReasonFold, nil)
		return err
	}
	s.accountAccepted(rep)
	return nil
}

// foldNow validates and folds one report under its run-ID shard's lock,
// timed into collect_fold_seconds, and tells the monitor.
func (s *Server) foldNow(rep *report.Report) error {
	t0 := time.Now()
	err := s.fold(rep)
	s.m.foldSeconds.Observe(time.Since(t0).Seconds())
	if err == nil {
		s.Monitor.ReportFolded()
	}
	return err
}

func (s *Server) fold(rep *report.Report) error {
	if err := s.validate(rep); err != nil {
		return err
	}
	sh := s.shardFor(rep.RunID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.foldShardLocked(sh, rep)
}

// foldShardLocked folds one already-validated report into a shard's
// aggregate, accumulator, and report store. The caller holds sh.mu —
// fold takes it per report, the staged folder once per drained batch.
func (s *Server) foldShardLocked(sh *ingestShard, rep *report.Report) error {
	if err := sh.agg.Fold(rep); err != nil {
		return err
	}
	if sh.acc != nil {
		if err := sh.acc.Fold(rep); err != nil {
			// Unreachable: validate() accepted the same shape agg.Fold just
			// folded, and Accum applies the identical shape rule.
			panic(fmt.Sprintf("collect: score fold: %v", err))
		}
	}
	if sh.db.NumCounters == 0 {
		// "Accept any" server: the adopted shape fixes the shard's
		// retention path too.
		sh.db.NumCounters = sh.agg.NumCounters
	}
	if s.mode == StoreAll {
		return sh.db.Add(rep)
	}
	return nil
}

// DB returns a snapshot of the stored reports (StoreAll mode). Shard
// stores are merged and ordered by run ID (stable for ties), so the
// snapshot is deterministic regardless of ingest interleaving.
func (s *Server) DB() *report.DB {
	s.init()
	s.drainStaging()
	db := report.NewDB(s.program, int(s.shape.Load()))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		db.Reports = append(db.Reports, sh.db.Reports...)
		sh.mu.Unlock()
	}
	sort.SliceStable(db.Reports, func(i, j int) bool {
		return db.Reports[i].RunID < db.Reports[j].RunID
	})
	return db
}

// Aggregate returns a snapshot of the sufficient statistics: the
// order-free merge of every shard's fold, identical to a serial fold of
// the same reports.
func (s *Server) Aggregate() *report.Aggregate {
	s.init()
	s.drainStaging()
	agg := report.NewAggregate(s.program, int(s.shape.Load()))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := agg.Merge(sh.agg)
		sh.mu.Unlock()
		if err != nil {
			// Unreachable: validate() fixes one shape for every shard.
			panic(fmt.Sprintf("collect: shard merge: %v", err))
		}
	}
	return agg
}

// ScoreState returns a snapshot of the live scoring statistics: the
// order-free merge of every shard's accumulator. The staging drain
// barrier runs first, then shards are locked one at a time (each report
// folds atomically within its shard), so the result is a serial fold of
// a definite subset of the submitted reports that includes everything
// acknowledged before the call — the consistency argument is DESIGN
// §11, extended to staged ingest in §13. It implements monitor.Source.
func (s *Server) ScoreState() *score.Accum {
	s.init()
	s.drainStaging()
	acc := score.NewAccum(int(s.shape.Load()), s.Sites)
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.acc == nil {
			continue
		}
		sh.mu.Lock()
		err := acc.Merge(sh.acc)
		sh.mu.Unlock()
		if err != nil {
			// Unreachable: validate() fixes one shape for every shard.
			panic(fmt.Sprintf("collect: score merge: %v", err))
		}
	}
	return acc
}

// ScoreStateAndDB captures the scoring statistics and the stored
// reports in one pass, taking each shard's accumulator and report slice
// under a single lock acquisition. Because every report enters both
// structures under that same lock, the pair describes exactly the same
// report subset — the verification hook concurrency tests use to check
// live rankings against the offline oracle mid-ingest (StoreAll only).
func (s *Server) ScoreStateAndDB() (*score.Accum, *report.DB) {
	s.init()
	s.drainStaging()
	acc := score.NewAccum(int(s.shape.Load()), s.Sites)
	db := report.NewDB(s.program, int(s.shape.Load()))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		var err error
		if sh.acc != nil {
			err = acc.Merge(sh.acc)
		}
		db.Reports = append(db.Reports, sh.db.Reports...)
		sh.mu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("collect: score merge: %v", err))
		}
	}
	sort.SliceStable(db.Reports, func(i, j int) bool {
		return db.Reports[i].RunID < db.Reports[j].RunID
	})
	return acc, db
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// until Stop. It returns the bound address and flips /healthz to ok.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpServer = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: idleTimeout}
	go func() { _ = s.httpServer.Serve(ln) }()
	s.health.Set(telemetry.HealthOK)
	return ln.Addr().String(), nil
}

// Stop drains the server: /healthz flips to shutting-down so load
// balancers stop routing, in-flight report POSTs are allowed up to
// ShutdownTimeout to complete before connections are forced closed, and
// then the staging rings are drained and the folder goroutines retired
// — every report acknowledged with a 202 is folded before Stop returns.
// A federated edge then takes one final cut and best-effort push (what
// the parent does not ack stays in the spill state for the next boot),
// spill persistence closes cleanly, and the monitor and quality workers
// stop last, after the final folds have notified them.
func (s *Server) Stop() error {
	var err error
	if s.httpServer != nil {
		s.health.Set(telemetry.HealthShuttingDown)
		ctx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
		defer cancel()
		if e := s.httpServer.Shutdown(ctx); e != nil {
			err = s.httpServer.Close()
		}
	}
	s.stopStaging()
	s.stopFederation(true)
	s.stopSpill()
	s.Monitor.Stop()
	s.Quality.Stop()
	return err
}

// Crash terminates the server abruptly: connections are severed, the
// federation loop dies without a flush, and the spill files are left
// exactly as the last append/cut wrote them — no final snapshot, no
// compaction. It is the crash-recovery test hook: a server restarted on
// the same SpillDir must recover every report acknowledged before the
// Crash call. (Background goroutines are still retired so tests do not
// leak them; the in-memory state they maintain is discarded unpersisted,
// which is exactly what a dead process would have left.)
func (s *Server) Crash() {
	if s.httpServer != nil {
		s.health.Set(telemetry.HealthShuttingDown)
		s.httpServer.Close()
	}
	s.stopFederation(false)
	s.stopStaging()
	s.Monitor.Stop()
	s.Quality.Stop()
	s.spillCloseAbrupt()
}

// Client submits reports to a remote collection server, with bounded
// jittered retries for transient failures. With BatchSize > 1 it
// buffers reports and ships them in one /reports POST per batch; it is
// safe for concurrent use from many fleet workers either way.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// MaxAttempts bounds submission tries (default 3). Only transport
	// errors and 5xx responses are retried; a 4xx rejection is final.
	MaxAttempts int
	// RetryBackoff is the base delay before the first retry (default
	// 50ms), doubled per attempt with ±50% jitter.
	RetryBackoff time.Duration
	// RetryAfterCap bounds how long a server's Retry-After header (sent
	// with the 503 shed response under collector overload) can delay a
	// retry (default 2s). When a 503 carries the header the client
	// honors it — sleeping the advertised duration with up-only jitter
	// and counting client_backpressure_total — instead of its own
	// exponential backoff; 5xx responses without the header keep the
	// plain jittered-backoff schedule.
	RetryAfterCap time.Duration
	// Metrics receives submit latency/outcome metrics (default
	// telemetry.Default).
	Metrics *telemetry.Registry
	// BatchSize, when > 1, buffers submitted reports and POSTs them as
	// one batch to /reports whenever the buffer fills. Call Flush after
	// the last submission to ship the remainder. Set before first use.
	BatchSize int

	batchMu sync.Mutex
	pending []*report.Report
}

// NewClient creates a client for the server at baseURL
// (e.g. "http://127.0.0.1:8123").
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) registry() *telemetry.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return telemetry.Default
}

// Submit posts one report, retrying transient failures. In batched mode
// the report may only be buffered; see SubmitContext.
func (c *Client) Submit(rep *report.Report) error {
	return c.SubmitContext(context.Background(), rep)
}

// SubmitContext posts one report, retrying transient failures. When ctx
// carries a trace span (trace.NewContext), the submission is recorded as
// a client.submit child span with one client.attempt child per POST, and
// the attempt's span context rides the X-CBI-Trace header so the
// collector continues the same trace.
//
// With BatchSize > 1 the report is buffered instead, and a filled
// buffer is shipped as one batched POST (whose spans and trace header
// parent to the submission that triggered the flush).
func (c *Client) SubmitContext(ctx context.Context, rep *report.Report) error {
	if c.BatchSize > 1 {
		c.batchMu.Lock()
		c.pending = append(c.pending, rep)
		if len(c.pending) < c.BatchSize {
			c.batchMu.Unlock()
			return nil
		}
		batch := c.pending
		c.pending = nil
		c.batchMu.Unlock()
		return c.postBatch(ctx, batch)
	}
	reg := c.registry()
	sub := trace.FromContext(ctx).StartChild("client.submit")
	sub.SetAttr("run_id", strconv.FormatUint(rep.RunID, 10))
	defer sub.End()
	start := time.Now()
	err := c.post(ctx, sub, "/report", rep.Encode())
	if err != nil {
		sub.SetAttr("outcome", "error")
		reg.Counter("client_submit_errors_total").Inc()
		return err
	}
	sub.SetAttr("outcome", "accepted")
	reg.Histogram("client_submit_seconds", telemetry.DefBuckets).
		Observe(time.Since(start).Seconds())
	reg.Counter("client_submits_total").Inc()
	return nil
}

// Flush ships any buffered reports (batched mode). Call it after the
// last submission; a fleet that exits without flushing strands its tail.
func (c *Client) Flush(ctx context.Context) error {
	c.batchMu.Lock()
	batch := c.pending
	c.pending = nil
	c.batchMu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	return c.postBatch(ctx, batch)
}

// Pending returns the number of buffered, unshipped reports.
func (c *Client) Pending() int {
	c.batchMu.Lock()
	defer c.batchMu.Unlock()
	return len(c.pending)
}

// postBatch encodes and ships one batch, with the same retry policy and
// trace propagation as single submissions.
func (c *Client) postBatch(ctx context.Context, batch []*report.Report) error {
	reg := c.registry()
	sub := trace.FromContext(ctx).StartChild("client.submit_batch")
	sub.SetAttr("batch", strconv.Itoa(len(batch)))
	defer sub.End()
	start := time.Now()
	err := c.post(ctx, sub, "/reports", report.EncodeBatch(batch))
	if err != nil {
		sub.SetAttr("outcome", "error")
		reg.Counter("client_batch_errors_total").Inc()
		return err
	}
	sub.SetAttr("outcome", "accepted")
	reg.Histogram("client_submit_seconds", telemetry.DefBuckets).
		Observe(time.Since(start).Seconds())
	reg.Counter("client_batch_flushes_total").Inc()
	reg.Counter("client_batch_reports_total").Add(uint64(len(batch)))
	return nil
}

// post drives the bounded-retry loop for one payload against one
// endpoint, recording a client.attempt span per POST under sub.
func (c *Client) post(ctx context.Context, sub *trace.Span, path string, body []byte) error {
	reg := c.registry()
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var err error
	var retryAfter time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			reg.Counter("client_submit_retries_total").Inc()
			if retryAfter > 0 {
				// The collector shed us with explicit back-pressure:
				// honor its Retry-After (capped in tryPost) with up-only
				// jitter so the fleet's retries spread out but never
				// return before the server asked.
				reg.Counter("client_backpressure_total").Inc()
				time.Sleep(time.Duration(float64(retryAfter) * (1.0 + 0.5*rand.Float64())))
			} else {
				// Exponential backoff with ±50% jitter so a rebooting
				// collector is not hammered in lockstep by the whole fleet.
				d := backoff << (attempt - 1)
				time.Sleep(time.Duration(float64(d) * (0.5 + rand.Float64())))
			}
		}
		att := sub.StartChild("client.attempt")
		att.SetAttr("attempt", strconv.Itoa(attempt+1))
		var retryable bool
		retryable, retryAfter, err = c.tryPost(ctx, att, path, body)
		att.End()
		if err == nil {
			sub.SetAttr("attempts", strconv.Itoa(attempt+1))
			return nil
		}
		if !retryable {
			break
		}
	}
	return err
}

// tryPost performs one POST and reports whether a failure is worth
// retrying, plus any server-advertised Retry-After delay (0 when the
// response carried none). The attempt span's context (not the whole
// submission's) rides the trace header, so server-side spans parent to
// the POST that actually reached them.
func (c *Client) tryPost(ctx context.Context, att *trace.Span, path string, body []byte) (retryable bool, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path,
		bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if hv := att.HeaderValue(); hv != "" {
		req.Header.Set(trace.Header, hv)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return true, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		return false, 0, nil
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			retryAfter = d
			capAt := c.RetryAfterCap
			if capAt <= 0 {
				capAt = 2 * time.Second
			}
			if retryAfter > capAt {
				retryAfter = capAt
			}
		}
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return resp.StatusCode >= 500, retryAfter, fmt.Errorf("collect: server rejected report: %s: %s", resp.Status, msg)
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3, which allows both delay-seconds and an HTTP-date. The date
// forms accepted are the three http.ParseTime layouts (IMF-fixdate,
// obsolete RFC 850, ANSI C asctime); a date already in the past means
// "retry now" (zero delay), and anything unparseable reports ok=false
// so the caller falls back to its own backoff schedule.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Stats fetches the server's run summary.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	resp, err := c.HTTP.Get(c.BaseURL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("collect: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
