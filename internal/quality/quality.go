// Package quality is the collector's streaming ingest-quality engine:
// eyes on the population of reporting clients, at O(1) cost per report.
//
// The paper's setting is a ~60M-user deployment (§2.5) where reports
// arrive from an untrusted, churning population: malformed payloads,
// skewed run rates, and misbehaving clients are the norm. The engine
// folds every ingest event into fixed-size state:
//
//   - EWMA rate trackers per endpoint and per rejection reason, with
//     windowed anomaly rules (rate spikes, rejection-ratio surges,
//     ingest stalls) evaluated on a tick cadence;
//   - exact counts and sums of report body bytes and counter nonzeros;
//     the snapshot's p50/p99 columns read the collector's own
//     collect_report_bytes / collect_report_nonzeros histograms, so no
//     report is observed twice;
//   - an online statistical-distance check of every completed run's
//     sampled-event total against the advertised 1/d geometric-sampling
//     profile (density.go), flagging density drift per the
//     binomial-samplers framework;
//   - a bounded forensic ring buffer of truncated hex-dumped rejected
//     payloads (ring.go).
//
// The surface: GET /quality (JSON snapshot), GET /debug/badreports
// (forensics), `anomaly` / `recovered` events on the collector's /watch
// SSE stream, and a "Population health" panel on /dashboard. DESIGN §12
// states the quantile bound and the drift argument.
package quality

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/telemetry"
)

// Reason enumerates why ingest refused (or quarantined) a payload. It
// mirrors the collect_reports_rejected_total reason labels.
type Reason uint8

const (
	ReasonMethod Reason = iota
	ReasonRead
	ReasonTooLarge
	ReasonDecode
	ReasonFold
	// ReasonShed marks a report refused by ingest back-pressure: the
	// collector's staging rings stayed full past the enqueue deadline
	// and the request was answered 503 + Retry-After. Shed reports were
	// never folded, so they count as real rejections — a shed storm
	// trips the reject-surge rule like any other rejection wave.
	ReasonShed
	// ReasonQuarantine marks a payload the decoder accepted leniently
	// (duplicate counter indices or explicit zero pairs — encodings no
	// real client produces). The report is still folded, but counted and
	// retained for forensics instead of passing silently.
	ReasonQuarantine
	numReasons
)

var reasonNames = [numReasons]string{"method", "read", "too-large", "decode", "fold", "shed", "quarantine"}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// EventSink receives anomaly lifecycle events; monitor.Monitor
// implements it, putting `anomaly`/`recovered` on the /watch SSE stream.
type EventSink interface {
	Publish(event string, v any)
}

// Config parameterizes an Engine.
type Config struct {
	// Interval is the anomaly-evaluation tick cadence once Start is
	// called (<= 0 disables the ticker — tests and scripted drivers call
	// Tick directly; cbi-collect passes 1s).
	Interval time.Duration
	// Density is the advertised sampling density 1/d for the
	// statistical-distance check (0 = unknown; the shape check still
	// runs).
	Density float64
}

// The engine's fixed tuning. The three that in-package tests substitute
// live on the Engine, set by New from these.
const (
	// defaultHalfLife is the EWMA half-life of the rate baselines: how
	// much history a spike is judged against.
	defaultHalfLife = 30 * time.Second
	// spikeFactor: a window rate above spikeFactor x the EWMA baseline
	// (floored at minRate) flags a rate-spike anomaly.
	spikeFactor = 8
	// defaultMinEvents is the minimum events in a window before
	// spike/surge rules fire — tiny absolute counts are never anomalies.
	defaultMinEvents = 20
	// rejectRatio: rejected/(accepted+rejected) in one window above this
	// flags a reject-surge anomaly.
	rejectRatio = 0.5
	// minRate (events/sec) floors spike baselines and arms the stall
	// detector.
	minRate = 0.5
	// stallTicks consecutive empty accept windows after traffic was
	// flowing flag an ingest-stall anomaly.
	stallTicks = 3
	// recoverTicks consecutive clear ticks retire an active anomaly with
	// a `recovered` event.
	recoverTicks = 2
	// ringSize / sampleBytes size the forensic ring buffer: 64 entries,
	// 128 retained bytes each.
	ringSize    = 64
	sampleBytes = 128
	// tvThreshold is the total-variation distance above which the
	// sampling verdict is "drift".
	tvThreshold = 0.25
	// defaultMinCheckReports is how many completed runs the density check
	// needs before it renders a verdict.
	defaultMinCheckReports = 200
)

// trackerNames indexes the window counters: the two ingest endpoints,
// accepted reports, then one tracker per rejection reason.
const (
	trkReportPosts = iota
	trkReportsPosts
	trkAccept
	trkReject0  // + Reason
	numTrackers = trkReject0 + int(numReasons)
)

func trackerName(i int) string {
	switch i {
	case trkReportPosts:
		return "endpoint:/report"
	case trkReportsPosts:
		return "endpoint:/reports"
	case trkAccept:
		return "accept"
	}
	return "reject:" + Reason(i-trkReject0).String()
}

// RateStat is one tracker's view in the /quality snapshot.
type RateStat struct {
	// EWMA is the smoothed events/sec baseline; Last the most recent
	// window's rate; Window that window's raw count.
	EWMA   float64 `json:"ewma_per_sec"`
	Last   float64 `json:"last_per_sec"`
	Window uint64  `json:"window_events"`
}

// Anomaly is one active (or just-retired) anomaly, as published on the
// SSE stream and listed in the /quality snapshot.
type Anomaly struct {
	// Kind is "rate-spike", "reject-surge", "ingest-stall", or
	// "density-drift".
	Kind string `json:"kind"`
	// Target names what misbehaves: a tracker ("reject:decode",
	// "accept"), "ingest" for the surge ratio, "sampling" for drift.
	Target      string  `json:"target"`
	SinceUnixMs int64   `json:"since_unix_ms"`
	LastUnixMs  int64   `json:"last_unix_ms"`
	Value       float64 `json:"value"`
	Baseline    float64 `json:"baseline"`
}

type anomalyKey struct{ kind, target string }

type activeAnomaly struct {
	Anomaly
	clearStreak int
}

type engineMetrics struct {
	ticks        *telemetry.Counter
	active       *telemetry.Gauge
	recovered    *telemetry.Counter
	badRecorded  *telemetry.Counter
	samplingTV   *telemetry.Gauge
	samplingDisp *telemetry.Gauge
	anomalies    map[string]*telemetry.Counter
}

// Engine is the streaming ingest-quality state. Create with New, attach
// with Bind (collect.Server does both wiring steps for you), feed it
// Observe* calls from the ingest path, and either Start its ticker or
// drive Tick directly.
type Engine struct {
	cfg   Config
	start time.Time

	// Tuning New fixes at the defaults above; in-package tests set other
	// values on the engine they build, before traffic arrives.
	halfLife        time.Duration
	minEvents       uint64
	minCheckReports uint64

	// Events, when set before traffic arrives, receives `anomaly` and
	// `recovered` events (the collector wires its Monitor here so they
	// ride the /watch SSE stream).
	Events EventSink

	// Hot-path state: window counters are plain atomics — one Add per
	// event — drained by the tick; totals mirror them for snapshots.
	windows [numTrackers]atomic.Uint64
	totals  [numTrackers]atomic.Uint64

	// Exact aggregates for the snapshot's count/mean columns (and the
	// federated Digest).
	bytesCount atomic.Uint64
	bytesSum   atomic.Uint64
	nzSum      atomic.Uint64

	// The collector's report-shape histograms, found by name at Bind;
	// the snapshot reads their p50/p99 and never observes into them.
	bytesHist *telemetry.Histogram
	nzHist    *telemetry.Histogram

	// mu guards dens; each completed run holds it for one O(1) observe.
	// Readers copy dens under mu and compute the verdict outside it.
	mu   sync.Mutex
	dens densityCheck

	ring *ring

	// Tick state: owned by the ticker goroutine (or explicit Tick
	// callers); tickMu serializes them, stateMu guards what snapshots
	// read.
	tickMu   sync.Mutex
	lastTick time.Time
	ewma     [numTrackers]float64
	lastRate [numTrackers]float64
	lastWin  [numTrackers]uint64
	ticked   [numTrackers]int
	zeroRun  int
	frozen   float64 // accept EWMA frozen at stall onset

	stateMu        sync.Mutex
	active         map[anomalyKey]*activeAnomaly
	anomaliesTotal uint64

	m engineMetrics

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
}

// New creates an engine. Bind it (or let collect.Server do it) before
// traffic arrives.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:             cfg,
		start:           time.Now(),
		halfLife:        defaultHalfLife,
		minEvents:       defaultMinEvents,
		minCheckReports: defaultMinCheckReports,
		ring:            newRing(ringSize, sampleBytes),
		active:          make(map[anomalyKey]*activeAnomaly),
		stopCh:          make(chan struct{}),
	}
}

// Bind attaches the telemetry registry (nil = telemetry.Default). Later
// calls are ignored. Safe on a nil engine.
func (e *Engine) Bind(reg *telemetry.Registry) {
	if e == nil || e.bytesHist != nil {
		return
	}
	if reg == nil {
		reg = telemetry.Default
	}
	e.bytesHist = reg.Histogram("collect_report_bytes", telemetry.SizeBuckets)
	e.nzHist = reg.Histogram("collect_report_nonzeros", telemetry.NonzeroBuckets)
	e.m = engineMetrics{
		ticks:        reg.Counter("quality_ticks_total"),
		active:       reg.Gauge("quality_active_anomalies"),
		recovered:    reg.Counter("quality_anomalies_recovered_total"),
		badRecorded:  reg.Counter("quality_bad_reports_recorded_total"),
		samplingTV:   reg.Gauge("quality_sampling_tv_distance"),
		samplingDisp: reg.Gauge("quality_sampling_dispersion"),
		anomalies:    make(map[string]*telemetry.Counter),
	}
	for _, kind := range []string{"rate-spike", "reject-surge", "ingest-stall", "density-drift"} {
		e.m.anomalies[kind] = reg.Counter("quality_anomalies_total" + telemetry.Labels("kind", kind))
	}
}

// Start launches the tick goroutine, if an Interval is configured.
// Safe on a nil engine; later calls are ignored.
func (e *Engine) Start() {
	if e == nil || e.cfg.Interval <= 0 {
		return
	}
	e.startOnce.Do(func() {
		go func() {
			t := time.NewTicker(e.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					e.Tick()
				case <-e.stopCh:
					return
				}
			}
		}()
	})
}

// Stop halts the ticker. Safe on a nil or never-started engine.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.startOnce.Do(func() {}) // a stopped engine must not start its ticker
	e.stopOnce.Do(func() { close(e.stopCh) })
}

// ----------------------------------------------------------------------------
// Hot path

// ObserveEndpoint counts one POST hitting an ingest endpoint (batch is
// true for /reports). One atomic add.
func (e *Engine) ObserveEndpoint(batch bool) {
	if e == nil {
		return
	}
	i := trkReportPosts
	if batch {
		i = trkReportsPosts
	}
	e.windows[i].Add(1)
	e.totals[i].Add(1)
}

// ObserveAccepted folds one accepted report: wireBytes is the report's
// encoded size (0 for in-process submissions with no wire form),
// nonzeros its nonzero-counter count, sampleTotal the sum of its
// counters, crashed whether the run crashed. The run ID and counter
// shape (the first two parameters) are not used. A few atomic adds,
// plus one O(1) density observation under mu for a completed run.
func (e *Engine) ObserveAccepted(_ uint64, _, wireBytes, nonzeros int, sampleTotal uint64, crashed bool) {
	if e == nil {
		return
	}
	e.windows[trkAccept].Add(1)
	e.totals[trkAccept].Add(1)
	if wireBytes > 0 {
		e.bytesCount.Add(1)
		e.bytesSum.Add(uint64(wireBytes))
	}
	e.nzSum.Add(uint64(nonzeros))
	if !crashed {
		e.mu.Lock()
		e.dens.observe(sampleTotal)
		e.mu.Unlock()
	}
}

// ObserveRejected counts one rejected payload and retains a forensic
// sample of it (payload may be nil when nothing was read, e.g. a method
// rejection).
func (e *Engine) ObserveRejected(reason Reason, payload []byte) {
	if e == nil {
		return
	}
	i := trkReject0 + int(reason)
	e.windows[i].Add(1)
	e.totals[i].Add(1)
	if len(payload) > 0 {
		e.ring.record(reason, 0, len(payload), payload)
		e.m.recordBad()
	}
}

// ObserveQuarantined counts one leniently decoded report — folded, but
// no longer silently: it lands in the quarantine tracker and the
// forensic ring. The wire bytes are gone by fold time, so the ring
// entry carries the run ID and encoded size instead of a hex dump.
func (e *Engine) ObserveQuarantined(runID uint64, wireLen int) {
	if e == nil {
		return
	}
	i := trkReject0 + int(ReasonQuarantine)
	e.windows[i].Add(1)
	e.totals[i].Add(1)
	e.ring.record(ReasonQuarantine, runID, wireLen, nil)
	e.m.recordBad()
}

func (m *engineMetrics) recordBad() {
	if m.badRecorded != nil {
		m.badRecorded.Inc()
	}
}

// ----------------------------------------------------------------------------
// Tick: EWMA update + anomaly rules

// Tick drains the window counters, updates the EWMA baselines, and
// evaluates the anomaly rules once. The collector's ticker calls it
// every Interval; tests and scripted drivers call it directly. Safe on
// a nil engine.
func (e *Engine) Tick() {
	if e == nil {
		return
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()

	now := time.Now()
	dt := e.cfg.Interval.Seconds()
	if !e.lastTick.IsZero() {
		dt = now.Sub(e.lastTick).Seconds()
	}
	if dt <= 0 {
		dt = 1
	}
	e.lastTick = now

	// EWMA weight for this window from the half-life: after halfLife of
	// quiet the baseline has decayed by half, regardless of tick cadence.
	decay := math.Exp2(-dt / e.halfLife.Seconds())

	type finding struct {
		kind, target    string
		value, baseline float64
	}
	var found []finding

	var rejWin uint64
	var acceptBaseline float64
	for i := 0; i < numTrackers; i++ {
		w := e.windows[i].Swap(0)
		rate := float64(w) / dt
		baseline := e.ewma[i]
		if i == trkAccept {
			acceptBaseline = baseline
		}
		// Spike rule: judged against the pre-update baseline, floored at
		// minRate so a first burst after silence still registers, and
		// only with a meaningful absolute count. The accept tracker is
		// exempt — more traffic than usual is load, not an anomaly.
		if i != trkAccept && e.ticked[i] > 0 && w >= e.minEvents &&
			rate > spikeFactor*math.Max(baseline, minRate) {
			found = append(found, finding{"rate-spike", trackerName(i), rate, baseline})
		}
		e.ewma[i] = decay*baseline + (1-decay)*rate
		e.lastRate[i] = rate
		e.lastWin[i] = w
		e.ticked[i]++
		if i >= trkReject0 && Reason(i-trkReject0) != ReasonQuarantine {
			rejWin += w
		}
	}

	// Reject-surge rule: the window's rejection ratio across all real
	// rejections (quarantined reports were folded, so they don't count).
	accWin := e.lastWin[trkAccept]
	if total := accWin + rejWin; total >= e.minEvents {
		if ratio := float64(rejWin) / float64(total); ratio > rejectRatio {
			found = append(found, finding{"reject-surge", "ingest", ratio, rejectRatio})
		}
	}

	// Ingest-stall rule: traffic was flowing (EWMA above minRate), then
	// stallTicks consecutive empty windows. The baseline freezes at
	// onset so the stall keeps re-asserting until traffic resumes,
	// rather than "recovering" because the EWMA decayed to nothing.
	if accWin == 0 {
		if e.zeroRun == 0 {
			// Freeze the pre-update baseline: this tick's EWMA update has
			// already decayed toward zero on the empty window.
			e.frozen = acceptBaseline
		}
		e.zeroRun++
	} else {
		e.zeroRun = 0
	}
	if e.zeroRun >= stallTicks && math.Max(e.frozen, e.ewma[trkAccept]) > minRate {
		found = append(found, finding{"ingest-stall", "accept", 0, e.frozen})
	}

	// Density-drift rule: the statistical-distance verdict (density.go).
	sv := e.samplingVerdict()
	if sv.Verdict == "drift" {
		found = append(found, finding{"density-drift", "sampling", sv.TVDistance, sv.Threshold})
	}
	if e.m.samplingTV != nil {
		e.m.samplingTV.Set(sv.TVDistance)
		e.m.samplingDisp.Set(sv.Dispersion)
	}

	// Reconcile against the active set: new findings open anomalies (and
	// publish), persisting ones refresh, absent ones age out after
	// recoverTicks clear ticks (and publish recovery).
	nowMs := now.UnixMilli()
	e.stateMu.Lock()
	seen := make(map[anomalyKey]bool, len(found))
	var opened, recovered []Anomaly
	for _, f := range found {
		k := anomalyKey{f.kind, f.target}
		seen[k] = true
		if a, ok := e.active[k]; ok {
			a.LastUnixMs = nowMs
			a.Value = f.value
			a.Baseline = f.baseline
			a.clearStreak = 0
			continue
		}
		a := &activeAnomaly{Anomaly: Anomaly{
			Kind: f.kind, Target: f.target,
			SinceUnixMs: nowMs, LastUnixMs: nowMs,
			Value: f.value, Baseline: f.baseline,
		}}
		e.active[k] = a
		e.anomaliesTotal++
		opened = append(opened, a.Anomaly)
	}
	for k, a := range e.active {
		if seen[k] {
			continue
		}
		a.clearStreak++
		if a.clearStreak >= recoverTicks {
			delete(e.active, k)
			recovered = append(recovered, a.Anomaly)
		}
	}
	nActive := len(e.active)
	e.stateMu.Unlock()

	if e.m.ticks != nil {
		e.m.ticks.Inc()
		e.m.active.Set(float64(nActive))
		for _, a := range opened {
			if c, ok := e.m.anomalies[a.Kind]; ok {
				c.Inc()
			}
		}
		e.m.recovered.Add(uint64(len(recovered)))
	}
	if e.Events != nil {
		for _, a := range opened {
			e.Events.Publish("anomaly", a)
		}
		for _, a := range recovered {
			e.Events.Publish("recovered", a)
		}
	}
}

// ----------------------------------------------------------------------------
// Snapshot + HTTP surface

// Snapshot is the GET /quality JSON document.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Accepted      uint64  `json:"accepted_total"`
	RejectedTotal uint64  `json:"rejected_total"`
	Quarantined   uint64  `json:"quarantined_total"`
	// Rejected maps reason -> total (quarantine excluded: those reports
	// were folded).
	Rejected map[string]uint64 `json:"rejected"`
	// Rates holds the EWMA trackers, keyed by tracker name
	// ("endpoint:/report", "accept", "reject:decode", ...).
	Rates          map[string]RateStat `json:"rates"`
	ReportBytes    Distribution        `json:"report_bytes"`
	ReportNonzeros Distribution        `json:"report_nonzeros"`
	Sampling       SamplingVerdict     `json:"sampling"`
	Anomalies      []Anomaly           `json:"anomalies"`
	AnomaliesTotal uint64              `json:"anomalies_total"`
	BadReports     uint64              `json:"bad_reports_recorded"`
	Ticks          uint64              `json:"ticks"`
}

// Distribution is one report-shape column of the snapshot. Count and
// Mean are exact (and federated: they include absorbed edge digests);
// P50 and P99 are the upper bounds of the collector's histogram buckets
// holding those ranks, so each is within one bucket of the true
// quantile of this collector's own traffic (DESIGN §12).
type Distribution struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

func distribution(count, sum uint64, h *telemetry.Histogram) Distribution {
	d := Distribution{Count: count}
	if count > 0 {
		d.Mean = float64(sum) / float64(count)
	}
	if h != nil {
		d.P50, d.P99 = h.Quantile(0.5), h.Quantile(0.99)
	}
	return d
}

// samplingVerdict copies the density state under mu (32 KB) and runs
// the O(densityHistCap) verdict outside it, so ingest never waits on it.
func (e *Engine) samplingVerdict() SamplingVerdict {
	e.mu.Lock()
	d := e.dens
	e.mu.Unlock()
	return d.verdict(e.cfg.Density, tvThreshold, e.minCheckReports)
}

// TakeSnapshot assembles the current quality view.
func (e *Engine) TakeSnapshot() Snapshot {
	snap := Snapshot{
		UptimeSeconds: time.Since(e.start).Seconds(),
		Rejected:      make(map[string]uint64, numReasons),
		Rates:         make(map[string]RateStat, numTrackers),
	}
	snap.Accepted = e.totals[trkAccept].Load()
	for r := Reason(0); r < numReasons; r++ {
		v := e.totals[trkReject0+int(r)].Load()
		if r == ReasonQuarantine {
			snap.Quarantined = v
			continue
		}
		snap.Rejected[r.String()] = v
		snap.RejectedTotal += v
	}

	e.tickMu.Lock()
	for i := 0; i < numTrackers; i++ {
		snap.Rates[trackerName(i)] = RateStat{
			EWMA: e.ewma[i], Last: e.lastRate[i], Window: e.lastWin[i],
		}
	}
	e.tickMu.Unlock()

	snap.ReportBytes = distribution(e.bytesCount.Load(), e.bytesSum.Load(), e.bytesHist)
	snap.ReportNonzeros = distribution(snap.Accepted, e.nzSum.Load(), e.nzHist)
	snap.Sampling = e.samplingVerdict()

	e.stateMu.Lock()
	snap.Anomalies = e.activeLocked()
	snap.AnomaliesTotal = e.anomaliesTotal
	e.stateMu.Unlock()

	_, snap.BadReports = e.ring.snapshot()
	if e.m.ticks != nil {
		snap.Ticks = e.m.ticks.Value()
	}
	return snap
}

// ActiveAnomalies returns the current active set, oldest first (ties by
// kind, then target). Safe on a nil engine.
func (e *Engine) ActiveAnomalies() []Anomaly {
	if e == nil {
		return nil
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.activeLocked()
}

// activeLocked lists the active set, sorted; stateMu must be held.
func (e *Engine) activeLocked() []Anomaly {
	var out []Anomaly
	for _, a := range e.active {
		out = append(out, a.Anomaly)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SinceUnixMs != out[j].SinceUnixMs {
			return out[i].SinceUnixMs < out[j].SinceUnixMs
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// BadReports returns the forensic ring contents, newest first, and the
// total ever recorded.
func (e *Engine) BadReports() ([]BadReport, uint64) {
	return e.ring.snapshot()
}

// ServeQuality handles GET /quality.
func (e *Engine) ServeQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(e.TakeSnapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// badReportsResponse is the GET /debug/badreports JSON document.
type badReportsResponse struct {
	Size     int         `json:"size"`
	Recorded uint64      `json:"recorded_total"`
	Reports  []BadReport `json:"reports"`
}

// ServeBadReports handles GET /debug/badreports.
func (e *Engine) ServeBadReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reports, total := e.ring.snapshot()
	if reports == nil {
		reports = []BadReport{}
	}
	w.Header().Set("Content-Type", "application/json")
	resp := badReportsResponse{Size: cap(e.ring.buf), Recorded: total, Reports: reports}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
