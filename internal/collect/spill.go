// Spill-to-disk persistence: an edge collector's crash-durability
// layer.
//
// Two files live under SpillDir. "reports.log" is an append-only
// journal of accepted report bodies in the store.go framing (uvarint
// length prefix + encoded report — a /reports batch body is spliced in
// verbatim after its header, since its frame region is byte-identical).
// "state.cbs" is a periodic snapshot ("CBS1"): the cumulative
// aggregate/accumulator/quality seed, the federation identity (edge ID,
// epoch cursor, unacknowledged epoch payloads), and — on a root — the
// per-edge merge cursors. Snapshots are written tmp+rename, so the
// state file is always a complete image.
//
// The ordering contract that makes recovery exact is a reader-writer
// gate: takeIn enqueues-then-appends under gate.RLock, and a
// snapshot takes gate.Lock, runs the staging drain barrier, captures
// the merged state, writes it, and only then compacts the log
// (AggregateOnly mode). Holding the write gate across that whole
// sequence guarantees every logged report is folded into the captured
// seed before the log is truncated, and every report accepted after the
// capture lands in the fresh log — so seed ∪ log always covers
// everything acknowledged with a 202. In StoreAll mode the log is never
// truncated (it doubles as the report database) and replay rebuilds the
// shards from scratch. The crash-recovery accounting argument is
// DESIGN §14.
//
// Appends are write(2) calls on an O_APPEND descriptor — no user-space
// buffering, no fsync. Durability is therefore "up to the OS page
// cache": a process kill loses nothing acknowledged, a whole-machine
// power cut can lose the cache tail. A torn final frame from such a
// crash is detected on replay (report.ReadAllPrefix) and truncated
// away; it was never acknowledged, because the 202 happens strictly
// after the write returns.
package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"encoding/binary"

	"cbi/internal/analysis/score"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/wire"
)

// spillSnapshotInterval is the standalone snapshot cadence. Federated
// edges ignore it: they persist at every epoch cut instead.
const spillSnapshotInterval = 30 * time.Second

// A state file is a state image (federate.go) under its own magic,
// carrying the seed in sections 1–3 plus the two spill-only sections.
const (
	spillMagic      = "CBS1"
	maxSpillPending = 1 << 16
	maxSpillEdges   = 1 << 20
)

// spillState is the runtime of the persistence layer.
type spillState struct {
	// gate is the append/snapshot ordering contract: handlers hold the
	// read side around enqueue+append, snapshots hold the write side
	// around drain+capture+persist+compact.
	gate      sync.RWMutex
	logPath   string
	statePath string
	logF      *os.File
	closed    bool // write side of gate
	replayed  int
	restored  *fedRestore // non-nil when a state file was loaded

	loopStop     chan struct{}
	loopStopOnce sync.Once
	loopDone     chan struct{}
}

// fedRestore is the federation identity recovered from a state file,
// handed to initFederation so epochs and dedup survive a restart.
type fedRestore struct {
	edgeID   string
	epoch    uint64
	baseAgg  *report.Aggregate
	baseAcc  *score.Accum
	baseQual quality.Digest
	pending  []fedPending
}

// frameReport wraps one encoded report body in the log framing.
func frameReport(body []byte) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, len(body)+binary.MaxVarintLen64), uint64(len(body)))
	return append(buf, body...)
}

// initSpill loads any persisted state and replays the report log, then
// opens the append handle. Called once from init, after the shards are
// allocated and before staging, the monitor, and federation start. A
// spill directory that exists but cannot be decoded or folded is a
// boot-time fault and panics loudly — starting fresh would silently
// discard acknowledged reports.
func (s *Server) initSpill() {
	if s.SpillDir == "" {
		return
	}
	if err := os.MkdirAll(s.SpillDir, 0o755); err != nil {
		panic(fmt.Sprintf("collect: spill dir: %v", err))
	}
	sp := &spillState{
		logPath:   filepath.Join(s.SpillDir, "reports.log"),
		statePath: filepath.Join(s.SpillDir, "state.cbs"),
	}
	s.spill = sp
	if data, err := os.ReadFile(sp.statePath); err == nil {
		st, pending, cursors, derr := decodeSpillState(data)
		if derr != nil {
			panic(fmt.Sprintf("collect: spill state %s: %v", sp.statePath, derr))
		}
		s.restoreSpillState(sp, st, pending, cursors)
	} else if !os.IsNotExist(err) {
		panic(fmt.Sprintf("collect: spill state: %v", err))
	}
	s.replaySpillLog(sp)
	logF, err := os.OpenFile(sp.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		panic(fmt.Sprintf("collect: spill log: %v", err))
	}
	sp.logF = logF
}

// restoreSpillState applies a decoded snapshot: shape adoption, shard
// seeding (AggregateOnly — in StoreAll the untruncated log rebuilds the
// shards), quality totals, merge cursors, and the federation identity.
func (s *Server) restoreSpillState(sp *spillState, st *stateImage, pending []fedPending, cursors map[string]uint64) {
	if s.program != "" && st.program != "" && st.program != s.program {
		panic(fmt.Sprintf("collect: spill state is for program %q, server collects %q", st.program, s.program))
	}
	if st.numCounters > 0 {
		if want := s.shape.Load(); want == 0 {
			s.shape.Store(int64(st.numCounters))
		} else if int64(st.numCounters) != want {
			panic(fmt.Sprintf("collect: spill state has counter shape %d, server expects %d", st.numCounters, want))
		}
	}
	restored := &fedRestore{edgeID: st.edgeID, epoch: st.epoch, pending: pending}
	if st.aggRaw != nil {
		seedAgg, err := report.DecodeAggregateStats(st.aggRaw)
		if err != nil {
			panic(fmt.Sprintf("collect: spill state aggregate: %v", err))
		}
		seedAgg.Program = st.program
		restored.baseAgg = seedAgg
	}
	if st.accRaw != nil && s.accumsEnabled() {
		if st.numSpans != len(s.Sites) {
			panic(fmt.Sprintf("collect: spill state has %d site spans, server has %d", st.numSpans, len(s.Sites)))
		}
		seedAcc, err := score.DecodeAccumStats(st.accRaw, st.numCounters, s.Sites)
		if err != nil {
			panic(fmt.Sprintf("collect: spill state accumulator: %v", err))
		}
		restored.baseAcc = seedAcc
	}
	if st.qualRaw != nil {
		dig, err := quality.DecodeDigest(st.qualRaw)
		if err != nil {
			panic(fmt.Sprintf("collect: spill state quality digest: %v", err))
		}
		restored.baseQual = dig
	}
	if s.mode == AggregateOnly {
		sh := &s.shards[0]
		if restored.baseAgg != nil {
			if err := sh.agg.Merge(restored.baseAgg); err != nil {
				panic(fmt.Sprintf("collect: spill seed: %v", err))
			}
		}
		if restored.baseAcc != nil && sh.acc != nil {
			if err := sh.acc.Merge(restored.baseAcc); err != nil {
				panic(fmt.Sprintf("collect: spill seed: %v", err))
			}
		}
		// Merge cursors are only restored alongside the seed that holds
		// the merged state; a StoreAll root rebuilds from its own log
		// only, so stale cursors there would refuse re-pushed epochs it
		// no longer has.
		if len(cursors) > 0 {
			s.mergeSeen = cursors
		}
	}
	// The totals restore deliberately skips the tick windows: hours of
	// pre-crash history must not hit the rate trackers as one instant.
	s.Quality.AbsorbTotals(restored.baseQual)
	sp.restored = restored
}

// replaySpillLog folds every intact logged report back into the shards.
// A torn tail (the frame a crash interrupted) is truncated away — it
// predates any acknowledgment by construction.
func (s *Server) replaySpillLog(sp *spillState) {
	f, err := os.Open(sp.logPath)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		panic(fmt.Sprintf("collect: spill log: %v", err))
	}
	reps, good, rerr := report.ReadAllPrefix(f)
	f.Close()
	for _, rep := range reps {
		if ferr := s.fold(rep); ferr != nil {
			s.m.spillErrors.Inc()
			continue
		}
		sp.replayed++
	}
	if rerr != nil {
		if terr := os.Truncate(sp.logPath, good); terr != nil {
			panic(fmt.Sprintf("collect: spill log truncate: %v", terr))
		}
	}
	s.m.spillReplayed.Add(uint64(sp.replayed))
}

// spillAppend journals pre-framed report bytes. The caller (takeIn)
// holds gate.RLock, so no snapshot can interleave between the staging
// enqueue and this append. One Write call per request keeps concurrent
// appenders' frames contiguous (O_APPEND). A closed journal is an error
// like any other: a request that raced Stop this far gets no 202.
func (s *Server) spillAppend(frames []byte) error {
	sp := s.spill
	if sp.closed {
		return os.ErrClosed
	}
	if _, err := sp.logF.Write(frames); err != nil {
		return err
	}
	s.m.spillAppends.Inc()
	s.m.spillBytes.Add(uint64(len(frames)))
	return nil
}

// buildSpillState serializes a snapshot image: the seed cut, the
// federation identity (caller holds fed.mu when federation is active),
// and the merge cursors (copied under mergeMu).
func (s *Server) buildSpillState(cut serverCut) []byte {
	if cut.agg == nil {
		cut.agg = report.NewAggregate(s.program, int(s.shape.Load()))
	}
	img := &stateImage{
		program:     s.program,
		numCounters: cut.agg.NumCounters,
		numSpans:    len(s.Sites),
		aggRaw:      cut.agg.EncodeStats(),
		qualRaw:     cut.qual.Encode(),
	}
	if img.program == "" {
		img.program = cut.agg.Program
	}
	if cut.acc != nil {
		img.accRaw = cut.acc.EncodeStats()
	}
	if f := s.fed; f != nil {
		img.edgeID, img.epoch = f.edgeID, f.epoch
		if len(f.pending) > 0 {
			var e wire.Enc
			e.Uvarint(uint64(len(f.pending)))
			for _, p := range f.pending {
				e.Uvarint(p.epoch)
				e.Bytes(p.payload)
			}
			img.pendingRaw = e.Buf
		}
	}
	if s.AcceptMerges {
		s.mergeMu.Lock()
		if len(s.mergeSeen) > 0 {
			var e wire.Enc
			e.Uvarint(uint64(len(s.mergeSeen)))
			for id, ep := range s.mergeSeen {
				e.String(id)
				e.Uvarint(ep)
			}
			img.cursorsRaw = e.Buf
		}
		s.mergeMu.Unlock()
	}
	return encodeStateImage(spillMagic, img)
}

// decodeSpillState decodes a CBS1 state file and its two spill-only
// sections, each bounded: at most maxSpillPending unacked epochs and
// maxSpillEdges merge cursors, and no more of either than the section
// has bytes for.
func decodeSpillState(data []byte) (st *stateImage, pending []fedPending, cursors map[string]uint64, err error) {
	if st, err = decodeStateImage(spillMagic, data); err != nil {
		return nil, nil, nil, err
	}
	if st.pendingRaw != nil {
		d := wire.NewDec(st.pendingRaw, 0)
		n := d.Uvarint()
		if d.Bad() || n > maxSpillPending || n > uint64(d.Remaining()) {
			return nil, nil, nil, fmt.Errorf("collect: malformed pending section")
		}
		for i := uint64(0); i < n; i++ {
			ep := d.Uvarint()
			pending = append(pending, fedPending{epoch: ep, payload: d.Bytes()})
		}
		if !d.Done() {
			return nil, nil, nil, fmt.Errorf("collect: malformed pending section")
		}
	}
	if st.cursorsRaw != nil {
		d := wire.NewDec(st.cursorsRaw, 0)
		n := d.Uvarint()
		if d.Bad() || n > maxSpillEdges || n > uint64(d.Remaining()) {
			return nil, nil, nil, fmt.Errorf("collect: malformed merge-cursor section")
		}
		cursors = make(map[string]uint64, n)
		for i := uint64(0); i < n; i++ {
			id := string(d.Bytes())
			cursors[id] = d.Uvarint()
		}
		if !d.Done() {
			return nil, nil, nil, fmt.Errorf("collect: malformed merge-cursor section")
		}
	}
	return st, pending, cursors, nil
}

// writeSpillState lands a snapshot image atomically (tmp + rename).
func (s *Server) writeSpillState(data []byte) error {
	sp := s.spill
	tmp := sp.statePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, sp.statePath); err != nil {
		os.Remove(tmp)
		return err
	}
	s.m.spillSnapshots.Inc()
	return nil
}

// persistSpillLocked writes the snapshot for a cut and compacts the log
// (AggregateOnly mode: every logged report is folded into the seed by
// the time the caller captured it, so the log restarts empty). Caller
// holds gate.Lock and — when federation is active — fed.mu.
func (s *Server) persistSpillLocked(cut serverCut) error {
	if err := s.writeSpillState(s.buildSpillState(cut)); err != nil {
		return err
	}
	if s.mode == AggregateOnly {
		if err := s.spill.logF.Truncate(0); err != nil {
			return err
		}
	}
	return nil
}

// spillSnapshot runs one standalone snapshot cycle: block appends,
// drain staging, capture, persist, compact. Federated edges never call
// this — their snapshots ride the epoch cuts so the persisted seed
// always equals the diff baseline.
func (s *Server) spillSnapshot() {
	sp := s.spill
	sp.gate.Lock()
	defer sp.gate.Unlock()
	if sp.closed {
		return
	}
	if err := s.persistSpillLocked(s.captureCut()); err != nil {
		s.m.spillErrors.Inc()
	}
}

// startSpillLoop launches the periodic standalone snapshotter. No-op
// for federated edges (cuts persist) and spill-less servers. Called
// from init after federation is wired.
func (s *Server) startSpillLoop() {
	sp := s.spill
	if sp == nil || s.fed != nil {
		return
	}
	sp.loopStop = make(chan struct{})
	sp.loopDone = make(chan struct{})
	go func() {
		defer close(sp.loopDone)
		t := time.NewTicker(spillSnapshotInterval)
		defer t.Stop()
		for {
			select {
			case <-sp.loopStop:
				return
			case <-t.C:
				s.spillSnapshot()
			}
		}
	}()
}

// stopSpill finishes persistence cleanly: stop the snapshot loop, take
// a final snapshot (standalone — a federated edge's Stop flush already
// persisted at its final cut), and close the log.
func (s *Server) stopSpill() {
	sp := s.spill
	if sp == nil {
		return
	}
	if sp.loopStop != nil {
		sp.loopStopOnce.Do(func() { close(sp.loopStop) })
		<-sp.loopDone
	}
	if s.fed == nil {
		s.spillSnapshot()
	}
	sp.gate.Lock()
	sp.closed = true
	if sp.logF != nil {
		sp.logF.Close()
	}
	sp.gate.Unlock()
}

// spillCloseAbrupt is the Crash() path: release the descriptor without
// snapshotting, leaving exactly what a dead process would leave —
// whatever state file the last cut wrote plus the raw log.
func (s *Server) spillCloseAbrupt() {
	sp := s.spill
	if sp == nil {
		return
	}
	if sp.loopStop != nil {
		sp.loopStopOnce.Do(func() { close(sp.loopStop) })
		<-sp.loopDone
	}
	sp.gate.Lock()
	sp.closed = true
	if sp.logF != nil {
		sp.logF.Close()
	}
	sp.gate.Unlock()
}
