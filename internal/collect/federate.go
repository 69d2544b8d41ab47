// Federated collection: the tree tier between edge collectors and a
// root collector.
//
// Feedback reports are order-free sufficient statistics (DESIGN §8), so
// collection composes hierarchically: N edge collectors ingest reports
// exactly as a standalone server does, and periodically push *delta
// merges* of their state — report.Aggregate + score.Accum + the quality
// engine's exact-counter digest — upstream to a root collector's /merge
// endpoint. The root folds each delta into its own shards and serves
// the usual /stats, /rankings, /watch, and /quality surfaces from the
// merged state, so live triage and population health work unchanged at
// tree scale.
//
// The wire format is the "CBA1" envelope: magic, version, edge
// identity, epoch cursor, shape claim (program, counter count, site
// span count), then tagged length-prefixed sections — the state-image
// layout the spill snapshot shares under its own magic. Receivers skip
// unknown tags, so the envelope can grow new sections without breaking
// old roots. The endpoint is authenticated by shape, like report
// ingest: a delta folds only if its program, counter count, and span
// cardinality match the root's expectation (adopted from the first
// contact when the root is started "accept any").
//
// Exactly-once folding comes from epoch cursors, not idempotent
// payloads: each cut increments the edge's epoch, the payload bytes for
// an epoch never change once cut, pushes go upstream strictly in epoch
// order and stop at the first failure, and the root folds an edge's
// epoch only if it is greater than the last epoch it has seen from that
// edge (answering duplicates with an ack but no fold). A push whose ack
// was lost is therefore safe to repeat verbatim, and a spill-enabled
// edge that crashes and restarts re-pushes its persisted unacked epochs
// without double-counting. The merge-legality and crash-recovery
// arguments live in DESIGN §14.
package collect

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/wire"
)

// Federation configures a server as an edge of a collector tree. Set
// before the first submission or Handler call; a server with a non-nil
// Federation starts a background loop that cuts and pushes deltas.
type Federation struct {
	// Parent is the base URL of the upstream collector
	// (e.g. "http://root:8123"). Required.
	Parent string
	// EdgeID is this edge's stable identity at the root; the root's
	// epoch dedup cursor is per-EdgeID, so it must be unique in the
	// tree. Empty means: reuse the identity persisted in SpillDir if
	// there is one, else generate a random one.
	EdgeID string
	// Interval is the cut-and-push cadence (default 1s).
	Interval time.Duration
	// MaxPending caps unacknowledged epochs held in memory (and in the
	// spill state file). When the parent is unreachable long enough to
	// hit the cap, the edge stops cutting new epochs — deltas simply
	// accumulate into the next cut, so nothing is lost, the edge just
	// coarsens — and resumes once pushes drain (default 64).
	MaxPending int
	// HTTP is the client used for pushes (default: 30s timeout).
	HTTP *http.Client
}

// fedPending is one cut-but-unacknowledged epoch: the exact payload
// bytes to (re)push. Payloads are immutable once cut — that is what
// makes a repeated push of the same epoch safe.
type fedPending struct {
	epoch   uint64
	payload []byte
}

// fedState is the edge-side runtime of the federation loop.
type fedState struct {
	// mu serializes cut/push/flush cycles (the background loop,
	// FederateNow, and the Stop flush).
	mu         sync.Mutex
	edgeID     string
	epoch      uint64 // last cut epoch
	baseAgg    *report.Aggregate
	baseAcc    *score.Accum
	baseQual   quality.Digest
	pending    []fedPending
	interval   time.Duration
	maxPending int
	parent     string
	client     *http.Client
	stop       chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
}

// ----------------------------------------------------------------------------
// State images: the CBA1 merge envelope and the CBS1 spill snapshot

const (
	mergeMagic        = "CBA1"
	stateImageVersion = 1
	maxStateSections  = 64
)

// ErrBadMerge is returned when a merge envelope is framed correctly but
// carries no edge identity or an impossible counter shape.
var ErrBadMerge = errors.New("collect: malformed merge envelope")

// stateImage is the one layout both state formats share — the CBA1
// envelope an edge pushes to /merge and the CBS1 snapshot a spilling
// server writes (spill.go): magic, version, edge identity, epoch cursor,
// shape claim (program, counter count, site-span count), then the
// present sections as tag + length-prefixed payload, in tag order.
// Payloads stay raw; the receiver decodes them with its own site spans.
type stateImage struct {
	edgeID      string
	epoch       uint64
	program     string
	numCounters int
	numSpans    int
	aggRaw      []byte // tag 1: report.Aggregate.EncodeStats
	accRaw      []byte // tag 2: score.Accum.EncodeStats
	qualRaw     []byte // tag 3: quality.Digest.Encode
	pendingRaw  []byte // tag 4, CBS1 only: unacked federation epochs
	cursorsRaw  []byte // tag 5, CBS1 only: root-side per-edge epoch cursors
}

// sections returns the section slots in tag order: tag i+1 is slot i.
// A nil payload is an absent section.
func (img *stateImage) sections() [5]*[]byte {
	return [...]*[]byte{&img.aggRaw, &img.accRaw, &img.qualRaw, &img.pendingRaw, &img.cursorsRaw}
}

func encodeStateImage(magic string, img *stateImage) []byte {
	e := wire.Enc{Buf: []byte(magic)}
	e.Byte(stateImageVersion)
	e.String(img.edgeID)
	e.Uvarint(img.epoch)
	e.String(img.program)
	e.Uvarint(uint64(img.numCounters))
	e.Uvarint(uint64(img.numSpans))
	present := 0
	for _, raw := range img.sections() {
		if *raw != nil {
			present++
		}
	}
	e.Uvarint(uint64(present))
	for i, raw := range img.sections() {
		if *raw != nil {
			e.Byte(byte(i + 1))
			e.Bytes(*raw)
		}
	}
	return e.Buf
}

// decodeStateImage parses an image written under magic. It checks the
// framing only; what the header may claim is each caller's to check.
// Unknown section tags are skipped, so either format can grow sections
// without breaking older readers; a repeated tag keeps its last payload.
func decodeStateImage(magic string, data []byte) (*stateImage, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, fmt.Errorf("collect: not a %s image", magic)
	}
	d := wire.NewDec(data, len(magic))
	if v := d.Byte(); d.Bad() || v != stateImageVersion {
		return nil, fmt.Errorf("collect: %s version %d, want %d", magic, v, stateImageVersion)
	}
	img := &stateImage{}
	img.edgeID = string(d.Bytes())
	img.epoch = d.Uvarint()
	img.program = string(d.Bytes())
	img.numCounters = int(d.Uvarint())
	img.numSpans = int(d.Uvarint())
	n := d.Uvarint()
	if d.Bad() || n > maxStateSections {
		return nil, fmt.Errorf("collect: malformed %s header", magic)
	}
	slots := img.sections()
	for i := uint64(0); i < n; i++ {
		tag := d.Byte()
		raw := d.Bytes()
		if d.Bad() {
			return nil, fmt.Errorf("collect: malformed %s section", magic)
		}
		if tag >= 1 && int(tag) <= len(slots) {
			*slots[tag-1] = raw
		}
	}
	if !d.Done() {
		return nil, fmt.Errorf("collect: trailing bytes after %s image", magic)
	}
	return img, nil
}

// decodeMergeEnvelope decodes a CBA1 push and applies the merge side's
// own checks: an edge identity to dedupe on and a bounded shape claim.
func decodeMergeEnvelope(data []byte) (*stateImage, error) {
	env, err := decodeStateImage(mergeMagic, data)
	if err != nil {
		return nil, err
	}
	if env.edgeID == "" || env.numCounters < 0 || env.numCounters > 1<<28 {
		return nil, ErrBadMerge
	}
	return env, nil
}

// ----------------------------------------------------------------------------
// Edge side: cut, push, lifecycle

func randomEdgeID() string {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("edge-%d", time.Now().UnixNano())
	}
	return "edge-" + hex.EncodeToString(b[:])
}

// initFederation wires the edge role; called once from init, after the
// spill state (if any) has been loaded — the persisted identity, epoch
// cursor, baselines, and unacked epochs carry across restarts so the
// root's dedup keeps working.
func (s *Server) initFederation() {
	cfg := s.Federation
	if cfg == nil {
		return
	}
	if cfg.Parent == "" {
		panic("collect: Federation.Parent is required")
	}
	f := &fedState{
		interval:   cfg.Interval,
		maxPending: cfg.MaxPending,
		parent:     cfg.Parent,
		client:     cfg.HTTP,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if f.interval <= 0 {
		f.interval = time.Second
	}
	if f.maxPending <= 0 {
		f.maxPending = 64
	}
	if f.client == nil {
		f.client = &http.Client{Timeout: 30 * time.Second}
	}
	f.edgeID = cfg.EdgeID
	var restored *fedRestore
	if s.spill != nil {
		restored = s.spill.restored
	}
	if restored != nil && (f.edgeID == "" || f.edgeID == restored.edgeID) {
		f.edgeID = restored.edgeID
		f.epoch = restored.epoch
		f.baseAgg = restored.baseAgg
		f.baseAcc = restored.baseAcc
		f.baseQual = restored.baseQual
		f.pending = restored.pending
	}
	if f.edgeID == "" {
		f.edgeID = randomEdgeID()
	}
	s.fed = f
	s.reg.Gauge("collect_merge_epoch").Set(float64(f.epoch))
	s.reg.Gauge("collect_merge_pending_epochs").Set(float64(len(f.pending)))
	go s.runFederation()
}

func (s *Server) runFederation() {
	f := s.fed
	defer close(f.done)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.mu.Lock()
			s.federateCut()
			s.federatePushAll()
			f.mu.Unlock()
		}
	}
}

// serverCut is a consistent snapshot of the server's mergeable state:
// each shard's aggregate and accumulator captured under one lock
// acquisition per shard, behind the staging drain barrier, plus the
// quality engine's exact-counter totals.
type serverCut struct {
	agg  *report.Aggregate
	acc  *score.Accum // nil when the server keeps no accumulators
	qual quality.Digest
}

// captureCut merges every shard into a fresh cut. The caller owns the
// result outright (nothing is shared with live shard state except the
// immutable span slice), so it can become the next diff baseline
// without cloning.
func (s *Server) captureCut() serverCut {
	s.drainStaging()
	agg := report.NewAggregate(s.program, int(s.shape.Load()))
	var acc *score.Accum
	if s.accumsEnabled() {
		acc = score.NewAccum(int(s.shape.Load()), s.Sites)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := agg.Merge(sh.agg)
		if err == nil && acc != nil && sh.acc != nil {
			err = acc.Merge(sh.acc)
		}
		sh.mu.Unlock()
		if err != nil {
			// Unreachable: validate() fixes one shape for every shard.
			panic(fmt.Sprintf("collect: cut merge: %v", err))
		}
	}
	return serverCut{agg: agg, acc: acc, qual: s.Quality.TotalsDigest()}
}

// federateCut captures the current state, diffs it against the last
// cut's baseline, and — when the delta is non-empty — seals it as the
// next epoch's immutable payload. With spill enabled the cut and the
// state persist happen under the spill write-gate, so the persisted
// seed always equals the new baseline and the truncated log only ever
// contains reports the seed already covers (AggregateOnly mode).
// Caller holds f.mu.
func (s *Server) federateCut() {
	f := s.fed
	if len(f.pending) >= f.maxPending {
		return
	}
	sp := s.spill
	if sp != nil {
		sp.gate.Lock()
		defer sp.gate.Unlock()
	}
	cut := s.captureCut()
	aggDelta, err := cut.agg.Diff(f.baseAgg)
	var accDelta *score.Accum
	if err == nil && cut.acc != nil {
		accDelta, err = cut.acc.Diff(f.baseAcc)
	}
	if err != nil {
		// Unreachable in a healthy edge: the baseline is a past capture
		// of the same monotone state. Surface loudly rather than ship a
		// corrupt delta.
		panic(fmt.Sprintf("collect: federate cut: %v", err))
	}
	qualDelta := cut.qual.Sub(f.baseQual)
	if aggDelta.Runs == 0 && qualDelta.IsZero() {
		return // nothing since the last cut; no epoch, no persist
	}
	f.epoch++
	env := &stateImage{
		edgeID:      f.edgeID,
		epoch:       f.epoch,
		program:     cut.agg.Program,
		numCounters: cut.agg.NumCounters,
		numSpans:    len(s.Sites),
	}
	if env.program == "" {
		env.program = s.program
	}
	if aggDelta.Runs > 0 {
		env.aggRaw = aggDelta.EncodeStats()
		if accDelta != nil {
			env.accRaw = accDelta.EncodeStats()
		}
	}
	if !qualDelta.IsZero() {
		env.qualRaw = qualDelta.Encode()
	}
	f.pending = append(f.pending, fedPending{epoch: f.epoch, payload: encodeStateImage(mergeMagic, env)})
	f.baseAgg = cut.agg
	f.baseAcc = cut.acc
	f.baseQual = cut.qual
	if sp != nil {
		if err := s.persistSpillLocked(cut); err != nil {
			s.m.spillErrors.Inc()
		}
	}
	s.reg.Gauge("collect_merge_epoch").Set(float64(f.epoch))
	s.reg.Gauge("collect_merge_pending_epochs").Set(float64(len(f.pending)))
}

// federatePushAll ships unacked epochs strictly in order, stopping at
// the first failure (later epochs must not overtake an earlier one —
// the root folds only ascending epochs). Caller holds f.mu.
func (s *Server) federatePushAll() {
	f := s.fed
	acked := 0
	for len(f.pending) > 0 {
		if !s.federatePush(f.pending[0]) {
			break
		}
		f.pending = f.pending[1:]
		acked++
	}
	if acked > 0 {
		s.reg.Gauge("collect_merge_pending_epochs").Set(float64(len(f.pending)))
		if s.spill != nil {
			// Trim acked epochs from the persisted state so a restart
			// does not re-push them (harmless — the root answers
			// duplicates without folding — just wasteful). Seed and log
			// are untouched, so no gate is needed: f.mu already
			// serializes every state-file writer in federation mode.
			if err := s.writeSpillState(s.buildSpillState(serverCut{
				agg: f.baseAgg, acc: f.baseAcc, qual: f.baseQual,
			})); err != nil {
				s.m.spillErrors.Inc()
			}
		}
	}
}

// federatePush ships one epoch payload. Any outcome other than a 200
// ack counts as a failure and leaves the epoch pending for the next
// cycle; repeating the identical payload is safe (the root dedupes on
// the epoch cursor), so a push whose ack was lost in transit does not
// double-count.
func (s *Server) federatePush(p fedPending) bool {
	f := s.fed
	req, err := http.NewRequest(http.MethodPost, f.parent+"/merge", bytes.NewReader(p.payload))
	if err != nil {
		s.m.mergePushFailures.Inc()
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := f.client.Do(req)
	if err != nil {
		s.m.mergePushFailures.Inc()
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		s.m.mergePushFailures.Inc()
		return false
	}
	s.m.mergePushes.Inc()
	return true
}

// FederateNow forces one synchronous cut-and-push cycle, returning an
// error if any epoch remains unacknowledged afterwards. Tests and
// scripted drivers use it to flush an edge deterministically instead of
// waiting out the interval timer.
func (s *Server) FederateNow() error {
	s.init()
	f := s.fed
	if f == nil {
		return errors.New("collect: server has no federation configured")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s.federateCut()
	s.federatePushAll()
	if n := len(f.pending); n > 0 {
		return fmt.Errorf("collect: %d epoch(s) still unacknowledged by %s", n, f.parent)
	}
	return nil
}

// stopFederation retires the push loop. With flush set it runs one
// final cut-and-push so state folded before Stop reaches the root when
// the parent is reachable; anything still unacked stays in the spill
// state (when enabled) for the next boot.
func (s *Server) stopFederation(flush bool) {
	f := s.fed
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	if flush {
		f.mu.Lock()
		s.federateCut()
		s.federatePushAll()
		f.mu.Unlock()
	}
}

// ----------------------------------------------------------------------------
// Root side: the /merge endpoint

// MergeAck is the JSON body a root answers a /merge push with.
type MergeAck struct {
	Edge      string `json:"edge"`
	Epoch     uint64 `json:"epoch"`
	Duplicate bool   `json:"duplicate"`
}

// mergeShardIndex pins an edge to one shard so its deltas never contend
// with other edges' merges (report ingest keeps its own run-ID hash).
func (s *Server) mergeShardIndex(edgeID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(edgeID))
	return h.Sum64() & s.shardMask
}

func (s *Server) rejectMerge(w http.ResponseWriter, code int, msg string) {
	s.m.mergeRejected.Inc()
	http.Error(w, msg, code)
}

// handleMerge folds one edge delta into the root's state. The endpoint
// is authenticated by shape — program, counter count, and site-span
// cardinality must match — and dedupes on the per-edge epoch cursor
// under mergeMu, so a replayed push acks without folding twice.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.rejectMerge(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readLimited(w, r)
	if err == errBodyTooLarge {
		s.rejectMerge(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	if err != nil {
		s.rejectMerge(w, http.StatusBadRequest, err.Error())
		return
	}
	env, err := decodeMergeEnvelope(body)
	if err != nil {
		s.rejectMerge(w, http.StatusBadRequest, err.Error())
		return
	}
	s.init()
	// Shape authentication, mirroring validate(): an "accept any" root
	// adopts the first claimed shape atomically, then every later merge
	// must agree.
	if s.program != "" && env.program != "" && env.program != s.program {
		s.rejectMerge(w, http.StatusBadRequest,
			fmt.Sprintf("merge: program %q does not match collector %q", env.program, s.program))
		return
	}
	want := s.shape.Load()
	if want == 0 && env.numCounters > 0 {
		if !s.shape.CompareAndSwap(0, int64(env.numCounters)) {
			want = s.shape.Load()
		} else {
			want = int64(env.numCounters)
		}
	}
	if env.numCounters > 0 && int64(env.numCounters) != want {
		s.rejectMerge(w, http.StatusBadRequest,
			fmt.Sprintf("merge: counter shape %d, want %d", env.numCounters, want))
		return
	}
	if env.numSpans != len(s.Sites) {
		s.rejectMerge(w, http.StatusBadRequest,
			fmt.Sprintf("merge: %d site spans, want %d", env.numSpans, len(s.Sites)))
		return
	}
	var agg *report.Aggregate
	if env.aggRaw != nil {
		if agg, err = report.DecodeAggregateStats(env.aggRaw); err != nil {
			s.rejectMerge(w, http.StatusBadRequest, err.Error())
			return
		}
		if agg.NumCounters != env.numCounters {
			s.rejectMerge(w, http.StatusBadRequest, "merge: aggregate shape disagrees with envelope")
			return
		}
		agg.Program = env.program
	}
	var acc *score.Accum
	if env.accRaw != nil {
		if acc, err = score.DecodeAccumStats(env.accRaw, env.numCounters, s.Sites); err != nil {
			s.rejectMerge(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	var dig quality.Digest
	if env.qualRaw != nil {
		if dig, err = quality.DecodeDigest(env.qualRaw); err != nil {
			s.rejectMerge(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.mergeMu.Lock()
	last, seen := s.mergeSeen[env.edgeID]
	if seen && env.epoch <= last {
		s.mergeMu.Unlock()
		s.m.mergeDuplicates.Inc()
		writeMergeAck(w, MergeAck{Edge: env.edgeID, Epoch: env.epoch, Duplicate: true})
		return
	}
	sh := &s.shards[s.mergeShardIndex(env.edgeID)]
	sh.mu.Lock()
	if agg != nil {
		err = sh.agg.Merge(agg)
	}
	if err == nil && acc != nil && sh.acc != nil {
		err = sh.acc.Merge(acc)
	}
	sh.mu.Unlock()
	if err != nil {
		s.mergeMu.Unlock()
		s.rejectMerge(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.mergeSeen == nil {
		s.mergeSeen = make(map[string]uint64)
	}
	s.mergeSeen[env.edgeID] = env.epoch
	s.reg.Gauge("collect_merge_edges").Set(float64(len(s.mergeSeen)))
	s.mergeMu.Unlock()
	s.Quality.Absorb(dig)
	runs := 0
	if agg != nil {
		runs = agg.Runs
	}
	s.m.mergeRequests.Inc()
	s.m.mergeReports.Add(uint64(runs))
	s.Monitor.ReportsFolded(runs)
	writeMergeAck(w, MergeAck{Edge: env.edgeID, Epoch: env.epoch})
}

func writeMergeAck(w http.ResponseWriter, ack MergeAck) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ack)
}
