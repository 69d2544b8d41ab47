// Package monitor is the live triage console of the collection tier: it
// watches a bug hunt isolate itself while the fleet is still running.
//
// The paper's feedback reports are order-free sufficient statistics
// (§2.5), so a collector does not have to wait for the fleet to finish
// before ranking predicates — it can snapshot its accumulated state on a
// cadence, re-run the 2005 follow-up scores over it (package
// analysis/score), and publish the evolving top-K. This package
// maintains those incremental rankings and exposes them three ways:
//
//   - GET /rankings        — current (or freshly recomputed) top-K, JSON
//   - GET /watch           — Server-Sent-Events stream of snapshot /
//     converged / diverged events with churn metrics
//   - GET /dashboard       — dependency-free single-file HTML console
//
// Each snapshot carries churn relative to the previous one (a
// Kendall-tau-style rank distance plus new-entrant/dropout counts), and
// once the top-K has been stable for three consecutive snapshots the
// monitor declares convergence — the live signal the
// closed-loop adaptive-sampling roadmap item consumes.
//
// Snapshots are pure functions of a score.Accum supplied by a Source
// (collect.Server), so every published ranking is exactly what an
// offline score.Score + score.Rank pass would produce over the reports
// folded so far — see DESIGN §11 for the consistency argument.
package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/telemetry"
)

// Source supplies consistent snapshots of the live scoring statistics.
// collect.Server implements it by draining its staged-ingest rings (the
// DESIGN §13 drain barrier) and then merging its per-shard accumulators.
// Implementations must return a serial fold of a definite report subset
// that includes every report acknowledged before the call — the monitor
// publishes whatever it receives as a consistent ranking snapshot.
type Source interface {
	ScoreState() *score.Accum
}

// Config parameterizes a Monitor.
type Config struct {
	// TopK is how many ranked predicates each snapshot retains and the
	// stability window convergence is judged on (default 10).
	TopK int
	// EveryReports triggers a snapshot each time this many reports have
	// been folded (<= 0 disables the count cadence).
	EveryReports int
	// Interval additionally snapshots on a wall-clock cadence once Start
	// is called (0 disables the timer). A timer cadence means snapshots —
	// and therefore convergence — keep happening after ingest goes quiet.
	Interval time.Duration
	// PredicateName, when set, labels ranked counters with human-readable
	// predicate names (e.g. cfg.Program.PredicateName or
	// Manifest.PredicateName).
	PredicateName func(counter int) string
}

// Entry is one ranked predicate as published on /rankings and /watch.
type Entry struct {
	Rank       int     `json:"rank"`
	Counter    int     `json:"counter"`
	Name       string  `json:"name,omitempty"`
	Importance float64 `json:"importance"`
	Increase   float64 `json:"increase"`
	Failure    float64 `json:"failure"`
	Context    float64 `json:"context"`
	TrueFail   int     `json:"true_fail"`
	TrueOK     int     `json:"true_ok"`
}

// Churn measures how much the top-K moved between consecutive snapshots.
type Churn struct {
	// RankDistance is a normalized Kendall-tau-style distance between the
	// previous and current top-K (0 = identical order; see rankDistance).
	RankDistance float64 `json:"rank_distance"`
	NewEntrants  int     `json:"new_entrants"`
	Dropouts     int     `json:"dropouts"`
}

// Snapshot is one incremental ranking emission.
type Snapshot struct {
	Seq     int     `json:"seq"`
	Runs    int     `json:"runs"`
	Crashes int     `json:"crashes"`
	Ranked  int     `json:"ranked"` // predicates with positive Importance
	Top     []Entry `json:"top"`
	Churn   Churn   `json:"churn"`
	// Stable counts consecutive snapshots (including this one) with an
	// unchanged top-K order.
	Stable          int     `json:"stable"`
	Converged       bool    `json:"converged"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	SnapshotSeconds float64 `json:"snapshot_seconds"`
	UnixMilli       int64   `json:"unix_ms"`
}

// TriageStats is the live-triage summary embedded in the collector's
// /stats response, so scripted runs can poll convergence without parsing
// the SSE stream.
type TriageStats struct {
	RankingsSnapshots int   `json:"rankings_snapshots"`
	LastSnapshotUnix  int64 `json:"last_snapshot_unix"`
	Converged         bool  `json:"converged"`
}

// convergedEvent is the payload of the converged/diverged SSE events.
type convergedEvent struct {
	Seq       int     `json:"seq"`
	Runs      int     `json:"runs"`
	Snapshots int     `json:"snapshots"`
	Seconds   float64 `json:"seconds"`
	Top       []Entry `json:"top"`
}

type monitorMetrics struct {
	snapshots       *telemetry.Counter
	snapshotSeconds *telemetry.Histogram
	churn           *telemetry.Gauge
	entrants        *telemetry.Counter
	dropouts        *telemetry.Counter
	converged       *telemetry.Gauge
	timeToConverge  *telemetry.Gauge
	lastUnix        *telemetry.Gauge
	watchClients    *telemetry.Gauge
	dropped         *telemetry.Counter
}

// Monitor maintains the incremental rankings. Create with New, attach to
// a source with Bind (collect.Server does this for you), then feed it
// ReportFolded calls and/or Start its interval timer.
type Monitor struct {
	cfg Config
	src Source
	reg *telemetry.Registry
	m   monitorMetrics

	start  time.Time
	folded atomic.Uint64

	// snapMu serializes snapshot computation; cadence-triggered snapshots
	// use TryLock so a slow snapshot coalesces later triggers instead of
	// queueing ingest goroutines.
	snapMu sync.Mutex

	stateMu          sync.RWMutex
	cur              *Snapshot
	prevTop          []int
	stable           int
	converged        bool
	convergedRuns    int
	convergedSeq     int
	convergedSeconds float64

	subMu sync.Mutex
	subs  map[chan []byte]struct{}

	// kick wakes the snapshot worker; capacity 1 so a burst of cadence
	// crossings coalesces into one pending snapshot.
	kick      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
}

// stableFor is how many consecutive snapshots the top-K order must
// survive unchanged before the monitor declares convergence.
const stableFor = 3

// New creates a monitor. Bind it to a source before use.
func New(cfg Config) *Monitor {
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	return &Monitor{cfg: cfg, subs: make(map[chan []byte]struct{})}
}

// Bind attaches the monitor to its statistics source and telemetry
// registry, and launches the snapshot worker goroutine (stopped by
// Stop). collect.Server calls it from init; tests may call it directly.
// Later calls are ignored.
func (m *Monitor) Bind(src Source, reg *telemetry.Registry) {
	if m.src != nil {
		return
	}
	m.src = src
	if reg == nil {
		reg = telemetry.Default
	}
	m.reg = reg
	m.start = time.Now()
	m.m = monitorMetrics{
		snapshots:       reg.Counter("monitor_snapshots_total"),
		snapshotSeconds: reg.Histogram("monitor_snapshot_seconds", telemetry.DefBuckets),
		churn:           reg.Gauge("monitor_rank_churn"),
		entrants:        reg.Counter("monitor_rank_entrants_total"),
		dropouts:        reg.Counter("monitor_rank_dropouts_total"),
		converged:       reg.Gauge("monitor_converged"),
		timeToConverge:  reg.Gauge("monitor_time_to_convergence_seconds"),
		lastUnix:        reg.Gauge("monitor_last_snapshot_unix"),
		watchClients:    reg.Gauge("monitor_watch_clients"),
		dropped:         reg.Counter("monitor_events_dropped_total"),
	}
	m.kick = make(chan struct{}, 1)
	m.stopCh = make(chan struct{})
	// The snapshot worker: every cadence snapshot runs here, never on an
	// ingest goroutine, so the monitor's steady-state cost to the ingest
	// path is one atomic increment plus a non-blocking channel send.
	//
	// The worker self-throttles: after each snapshot it sleeps a
	// multiple of that snapshot's own duration, bounding its CPU duty
	// cycle regardless of ingest rate or state size. During a report
	// flood the cadence crossings coalesce into the one pending kick,
	// and the next snapshot covers everything since — snapshots get
	// sparser under load, never costlier. Forced Snapshot() calls skip
	// the worker entirely and are not throttled.
	go func() {
		for {
			select {
			case <-m.kick:
				snap := m.takeSnapshot(false)
				if snap == nil {
					continue
				}
				pause := time.Duration(snap.SnapshotSeconds * snapshotThrottle * float64(time.Second))
				if pause > maxSnapshotPause {
					pause = maxSnapshotPause
				}
				if pause > 0 {
					select {
					case <-time.After(pause):
					case <-m.stopCh:
						return
					}
				}
			case <-m.stopCh:
				return
			}
		}
	}()
}

// Start launches the interval snapshot timer, if one is configured.
func (m *Monitor) Start() {
	if m == nil || m.cfg.Interval <= 0 || m.stopCh == nil {
		return
	}
	m.startOnce.Do(func() {
		go func() {
			t := time.NewTicker(m.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					m.requestSnapshot()
				case <-m.stopCh:
					return
				}
			}
		}()
	})
}

// Stop halts the snapshot worker and interval timer. Safe on a nil,
// unbound, or never-started monitor.
func (m *Monitor) Stop() {
	if m == nil {
		return
	}
	m.startOnce.Do(func() {}) // a stopped monitor must not start its timer
	m.stopOnce.Do(func() {
		if m.stopCh != nil {
			close(m.stopCh)
		}
	})
}

// ReportFolded tells the monitor one more report has been folded into
// the source. It is called on the ingest path: an atomic increment, and
// on a cadence crossing a non-blocking wake of the snapshot worker
// (crossings during an in-flight snapshot coalesce into one pending).
func (m *Monitor) ReportFolded() { m.ReportsFolded(1) }

// ReportsFolded is the batched form of ReportFolded, used when many
// reports land in the source at once (a federated delta merge, a spill
// replay). One atomic add covers the whole batch; the cadence check
// fires if the add crossed any EveryReports boundary.
func (m *Monitor) ReportsFolded(n int) {
	if m == nil || m.src == nil || n <= 0 {
		return
	}
	v := m.folded.Add(uint64(n))
	if every := uint64(m.cfg.EveryReports); every > 0 && v/every != (v-uint64(n))/every {
		m.requestSnapshot()
	}
}

// requestSnapshot wakes the snapshot worker without blocking.
func (m *Monitor) requestSnapshot() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// Snapshot forces a fresh snapshot through the full cadence machinery
// (sequence numbers, churn, convergence) and returns it.
func (m *Monitor) Snapshot() *Snapshot { return m.takeSnapshot(true) }

// Current returns the latest snapshot, or nil before the first one.
func (m *Monitor) Current() *Snapshot {
	if m == nil {
		return nil
	}
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	return m.cur
}

// TriageStats summarizes triage state for the collector's /stats
// endpoint. Safe on a nil monitor (all zero values).
func (m *Monitor) TriageStats() TriageStats {
	if m == nil {
		return TriageStats{}
	}
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	st := TriageStats{Converged: m.converged}
	if m.cur != nil {
		st.RankingsSnapshots = m.cur.Seq
		st.LastSnapshotUnix = m.cur.UnixMilli / 1000
	}
	return st
}

// Convergence reports whether the rankings have converged and, if so, at
// which folded-report count, snapshot sequence, and elapsed seconds the
// first transition happened.
func (m *Monitor) Convergence() (runs, seq int, seconds float64, ok bool) {
	m.stateMu.RLock()
	defer m.stateMu.RUnlock()
	if m.convergedSeq == 0 {
		return 0, 0, 0, false
	}
	return m.convergedRuns, m.convergedSeq, m.convergedSeconds, true
}

// Rankings recomputes the ranked predicate list from the live state —
// a pure read that does not advance the snapshot sequence or the
// convergence machinery. It returns up to k entries (k <= 0 means all)
// plus the total ranked count and the run/crash totals of the state it
// scored.
func (m *Monitor) Rankings(k int) (top []Entry, ranked, runs, crashes int) {
	acc := m.src.ScoreState()
	all := score.Rank(acc.Predicates())
	return m.entries(all, k), len(all), acc.Runs, acc.Failures
}

func (m *Monitor) entries(ranked []score.Predicate, k int) []Entry {
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]Entry, len(ranked))
	for i, p := range ranked {
		out[i] = Entry{
			Rank:       i + 1,
			Counter:    p.Counter,
			Importance: p.Importance,
			Increase:   p.Increase,
			Failure:    p.Failure,
			Context:    p.Context,
			TrueFail:   p.TrueFail,
			TrueOK:     p.TrueOK,
		}
		if m.cfg.PredicateName != nil {
			out[i].Name = m.cfg.PredicateName(p.Counter)
		}
	}
	return out
}

// takeSnapshot computes one snapshot. force waits for the snapshot lock;
// cadence triggers skip instead (the next crossing will catch up).
func (m *Monitor) takeSnapshot(force bool) *Snapshot {
	if m == nil || m.src == nil {
		return nil
	}
	if force {
		m.snapMu.Lock()
	} else if !m.snapMu.TryLock() {
		return nil
	}
	defer m.snapMu.Unlock()

	t0 := time.Now()
	acc := m.src.ScoreState()
	ranked := score.Rank(acc.Predicates())
	top := m.entries(ranked, m.cfg.TopK)
	snapSec := time.Since(t0).Seconds()

	ids := make([]int, len(top))
	for i, e := range top {
		ids[i] = e.Counter
	}

	m.stateMu.Lock()
	snap := &Snapshot{
		Runs:            acc.Runs,
		Crashes:         acc.Failures,
		Ranked:          len(ranked),
		Top:             top,
		ElapsedSeconds:  time.Since(m.start).Seconds(),
		SnapshotSeconds: snapSec,
		UnixMilli:       t0.UnixMilli(),
	}
	snap.Seq = m.seqLocked() + 1
	if m.cur != nil {
		snap.Churn = churnOf(m.prevTop, ids)
	}
	if m.cur != nil && equalInts(m.prevTop, ids) {
		m.stable++
	} else {
		m.stable = 1
	}
	snap.Stable = m.stable
	wasConverged := m.converged
	// An empty ranking is trivially stable; convergence means a non-empty
	// top-K stopped moving.
	m.converged = len(ids) > 0 && m.stable >= stableFor
	snap.Converged = m.converged
	m.prevTop = ids
	m.cur = snap
	transition := m.converged && !wasConverged
	diverged := wasConverged && !m.converged
	if transition && m.convergedSeq == 0 {
		m.convergedRuns = snap.Runs
		m.convergedSeq = snap.Seq
		m.convergedSeconds = snap.ElapsedSeconds
	}
	m.stateMu.Unlock()

	m.m.snapshots.Inc()
	m.m.snapshotSeconds.Observe(snapSec)
	m.m.churn.Set(snap.Churn.RankDistance)
	m.m.entrants.Add(uint64(snap.Churn.NewEntrants))
	m.m.dropouts.Add(uint64(snap.Churn.Dropouts))
	m.m.lastUnix.Set(float64(t0.Unix()))
	if snap.Converged {
		m.m.converged.Set(1)
	} else {
		m.m.converged.Set(0)
	}
	if transition {
		m.m.timeToConverge.Set(snap.ElapsedSeconds)
	}

	m.publish("snapshot", snap)
	ev := convergedEvent{Seq: snap.Seq, Runs: snap.Runs, Snapshots: snap.Seq,
		Seconds: snap.ElapsedSeconds, Top: top}
	if transition {
		m.publish("converged", ev)
	}
	if diverged {
		m.publish("diverged", ev)
	}
	return snap
}

func (m *Monitor) seqLocked() int {
	if m.cur == nil {
		return 0
	}
	return m.cur.Seq
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// churnOf compares two consecutive top-K counter lists.
func churnOf(old, cur []int) Churn {
	oldSet := make(map[int]int, len(old))
	for i, c := range old {
		oldSet[c] = i
	}
	curSet := make(map[int]int, len(cur))
	for i, c := range cur {
		curSet[c] = i
	}
	ch := Churn{RankDistance: rankDistance(oldSet, curSet, len(old), len(cur))}
	for c := range curSet {
		if _, ok := oldSet[c]; !ok {
			ch.NewEntrants++
		}
	}
	for c := range oldSet {
		if _, ok := curSet[c]; !ok {
			ch.Dropouts++
		}
	}
	return ch
}

// rankDistance is a Kendall-tau-style distance between two top-K lists
// (Fagin/Kumar/Sivakumar's K^(0) "optimistic" metric): over every
// unordered pair of counters in the union, count the pairs ranked one
// way in the old list and the opposite way in the new one, treating a
// counter absent from a list as ranked below all its members; normalize
// by C(|union|, 2). Identical lists score 0; a reversed list scores 1.
func rankDistance(old, cur map[int]int, oldLen, curLen int) float64 {
	if len(old) == 0 && len(cur) == 0 {
		return 0
	}
	union := make([]int, 0, len(old)+len(cur))
	seen := make(map[int]bool, len(old)+len(cur))
	for c := range old {
		if !seen[c] {
			seen[c] = true
			union = append(union, c)
		}
	}
	for c := range cur {
		if !seen[c] {
			seen[c] = true
			union = append(union, c)
		}
	}
	if len(union) < 2 {
		return 0
	}
	rank := func(m map[int]int, miss int, c int) int {
		if r, ok := m[c]; ok {
			return r
		}
		return miss
	}
	discordant, pairs := 0, 0
	for i := 0; i < len(union); i++ {
		for j := i + 1; j < len(union); j++ {
			a, b := union[i], union[j]
			do := rank(old, oldLen, a) - rank(old, oldLen, b)
			dc := rank(cur, curLen, a) - rank(cur, curLen, b)
			if do*dc < 0 {
				discordant++
			}
			pairs++
		}
	}
	return float64(discordant) / float64(pairs)
}

// ----------------------------------------------------------------------------
// HTTP surface

// rankingsResponse is the /rankings JSON document.
type rankingsResponse struct {
	Fresh     bool    `json:"fresh"`
	Seq       int     `json:"seq"`
	Runs      int     `json:"runs"`
	Crashes   int     `json:"crashes"`
	Ranked    int     `json:"ranked"`
	Converged bool    `json:"converged"`
	Top       []Entry `json:"top"`
}

// ServeRankings handles GET /rankings?top=K[&fresh=1]. Without fresh it
// serves the latest cadence snapshot; with fresh (or before any
// snapshot, or when more entries are requested than a snapshot retains)
// it recomputes from the live state.
func (m *Monitor) ServeRankings(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	k := m.cfg.TopK
	if t := r.URL.Query().Get("top"); t != "" {
		v, err := strconv.Atoi(t)
		if err != nil {
			http.Error(w, "bad top parameter", http.StatusBadRequest)
			return
		}
		k = v
	}
	fresh := r.URL.Query().Get("fresh") != ""
	cur := m.Current()
	// The cached snapshot satisfies the request when it holds at least k
	// entries, or already holds every ranked predicate there is.
	cached := !fresh && cur != nil && k > 0 &&
		(k <= len(cur.Top) || cur.Ranked <= len(cur.Top))
	var resp rankingsResponse
	if !cached {
		top, ranked, runs, crashes := m.Rankings(k)
		resp = rankingsResponse{Fresh: true, Runs: runs, Crashes: crashes,
			Ranked: ranked, Top: top}
		if cur != nil {
			resp.Seq = cur.Seq
		}
		m.stateMu.RLock()
		resp.Converged = m.converged
		m.stateMu.RUnlock()
	} else {
		top := cur.Top
		if k < len(top) {
			top = top[:k]
		}
		resp = rankingsResponse{Seq: cur.Seq, Runs: cur.Runs, Crashes: cur.Crashes,
			Ranked: cur.Ranked, Converged: cur.Converged, Top: top}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// heartbeatInterval paces the SSE keepalive comments that hold idle
// /watch connections open through proxies.
const heartbeatInterval = 15 * time.Second

// snapshotThrottle × a snapshot's own duration is the pause the cadence
// worker takes after each snapshot, capping the worker's CPU duty cycle
// at roughly 1/snapshotThrottle of a core however fast reports arrive.
// maxSnapshotPause bounds the staleness throttling can introduce when
// one snapshot is very slow (huge counter spaces).
const (
	snapshotThrottle = 255
	maxSnapshotPause = time.Second
)

// ServeWatch handles GET /watch: a Server-Sent-Events stream of
// `snapshot`, `converged`, and `diverged` events. A newly connected
// client immediately receives the latest snapshot. Slow clients drop
// events rather than stall the snapshot path.
func (m *Monitor) ServeWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ch := make(chan []byte, 32)
	m.subMu.Lock()
	m.subs[ch] = struct{}{}
	m.subMu.Unlock()
	m.m.watchClients.Add(1)
	defer func() {
		m.subMu.Lock()
		delete(m.subs, ch)
		m.subMu.Unlock()
		m.m.watchClients.Add(-1)
	}()

	if _, err := fmt.Fprintf(w, "retry: 2000\n\n"); err != nil {
		return
	}
	if cur := m.Current(); cur != nil {
		if _, err := w.Write(formatEvent("snapshot", cur)); err != nil {
			return
		}
	}
	fl.Flush()

	heartbeat := time.NewTicker(heartbeatInterval)
	defer heartbeat.Stop()
	for {
		select {
		case b := <-ch:
			if _, err := w.Write(b); err != nil {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprintf(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Publish fans one arbitrary event out to every /watch subscriber — the
// hook other collector subsystems (the ingest-quality engine's
// anomaly/recovered events) use to ride the same SSE stream. Nil-safe,
// like every Monitor method.
func (m *Monitor) Publish(event string, v any) {
	if m == nil {
		return
	}
	m.publish(event, v)
}

// publish fans one event out to every /watch subscriber, never blocking:
// a subscriber whose buffer is full misses the event (and a counter
// records the drop) so ingest latency is never hostage to a slow reader.
func (m *Monitor) publish(event string, v any) {
	b := formatEvent(event, v)
	m.subMu.Lock()
	for ch := range m.subs {
		select {
		case ch <- b:
		default:
			m.m.dropped.Inc()
		}
	}
	m.subMu.Unlock()
}

// formatEvent renders one SSE frame.
func formatEvent(event string, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return []byte("event: " + event + "\ndata: " + string(data) + "\n\n")
}
