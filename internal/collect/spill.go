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

// defaultSpillSnapshotInterval is the standalone snapshot cadence when
// SpillSnapshotInterval is unset. Federated edges ignore it: they
// persist at every epoch cut instead.
const defaultSpillSnapshotInterval = 30 * time.Second

var spillMagic = []byte("CBS1")

const (
	spillVersion          = 1
	spillSectionAgg       = 1 // seed report.Aggregate.EncodeStats
	spillSectionAcc       = 2 // seed score.Accum.EncodeStats
	spillSectionQual      = 3 // seed quality.Digest.Encode
	spillSectionPending   = 4 // unacked federation epochs
	spillSectionMergeSeen = 5 // root-side per-edge epoch cursors
	maxSpillSections      = 64
	maxSpillPending       = 1 << 16
	maxSpillEdges         = 1 << 20
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

// spillPersisted is the raw decoded form of a "CBS1" state file.
type spillPersisted struct {
	edgeID      string
	epoch       uint64
	program     string
	numCounters int
	numSpans    int
	aggRaw      []byte
	accRaw      []byte
	qualRaw     []byte
	pending     []fedPending
	mergeSeen   map[string]uint64
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
		st, derr := decodeSpillState(data)
		if derr != nil {
			panic(fmt.Sprintf("collect: spill state %s: %v", sp.statePath, derr))
		}
		s.restoreSpillState(sp, st)
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
func (s *Server) restoreSpillState(sp *spillState, st *spillPersisted) {
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
	restored := &fedRestore{edgeID: st.edgeID, epoch: st.epoch, pending: st.pending}
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
		seedAcc, err := score.DecodeAccumStats(st.accRaw, s.Sites)
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
		if len(st.mergeSeen) > 0 {
			s.mergeSeen = st.mergeSeen
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
	if s.reg.LogEnabled() {
		s.reg.Event("spill_replayed", map[string]any{
			"reports": sp.replayed, "torn_tail": rerr != nil,
		})
	}
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
	var edgeID string
	var epoch uint64
	var pending []fedPending
	if f := s.fed; f != nil {
		edgeID, epoch, pending = f.edgeID, f.epoch, f.pending
	}
	prog := s.program
	if prog == "" {
		prog = cut.agg.Program
	}
	e := wire.Enc{Buf: append([]byte(nil), spillMagic...)}
	e.Byte(spillVersion)
	e.String(edgeID)
	e.Uvarint(epoch)
	e.String(prog)
	e.Uvarint(uint64(cut.agg.NumCounters))
	e.Uvarint(uint64(len(s.Sites)))
	type section struct {
		tag byte
		raw []byte
	}
	sections := []section{{spillSectionAgg, cut.agg.EncodeStats()}}
	if cut.acc != nil {
		sections = append(sections, section{spillSectionAcc, cut.acc.EncodeStats()})
	}
	sections = append(sections, section{spillSectionQual, cut.qual.Encode()})
	if len(pending) > 0 {
		var pe wire.Enc
		pe.Uvarint(uint64(len(pending)))
		for _, p := range pending {
			pe.Uvarint(p.epoch)
			pe.Bytes(p.payload)
		}
		sections = append(sections, section{spillSectionPending, pe.Buf})
	}
	if s.AcceptMerges {
		s.mergeMu.Lock()
		var me *wire.Enc
		if len(s.mergeSeen) > 0 {
			me = &wire.Enc{}
			me.Uvarint(uint64(len(s.mergeSeen)))
			for id, ep := range s.mergeSeen {
				me.String(id)
				me.Uvarint(ep)
			}
		}
		s.mergeMu.Unlock()
		if me != nil {
			sections = append(sections, section{spillSectionMergeSeen, me.Buf})
		}
	}
	e.Uvarint(uint64(len(sections)))
	for _, sec := range sections {
		e.Byte(sec.tag)
		e.Bytes(sec.raw)
	}
	return e.Buf
}

func decodeSpillState(data []byte) (*spillPersisted, error) {
	if len(data) < len(spillMagic) || string(data[:len(spillMagic)]) != string(spillMagic) {
		return nil, fmt.Errorf("bad magic")
	}
	d := wire.NewDec(data, len(spillMagic))
	if v := d.Byte(); d.Bad() || v != spillVersion {
		return nil, fmt.Errorf("version %d, want %d", v, spillVersion)
	}
	st := &spillPersisted{}
	st.edgeID = string(d.Bytes())
	st.epoch = d.Uvarint()
	st.program = string(d.Bytes())
	st.numCounters = int(d.Uvarint())
	st.numSpans = int(d.Uvarint())
	sections := d.Uvarint()
	if d.Bad() || sections > maxSpillSections {
		return nil, fmt.Errorf("malformed header")
	}
	for i := uint64(0); i < sections; i++ {
		tag := d.Byte()
		raw := d.Bytes()
		if d.Bad() {
			return nil, fmt.Errorf("malformed section")
		}
		switch tag {
		case spillSectionAgg:
			st.aggRaw = raw
		case spillSectionAcc:
			st.accRaw = raw
		case spillSectionQual:
			st.qualRaw = raw
		case spillSectionPending:
			pd := wire.NewDec(raw, 0)
			n := pd.Uvarint()
			if pd.Bad() || n > maxSpillPending {
				return nil, fmt.Errorf("malformed pending section")
			}
			for j := uint64(0); j < n; j++ {
				ep := pd.Uvarint()
				payload := pd.Bytes()
				if pd.Bad() {
					return nil, fmt.Errorf("malformed pending epoch")
				}
				st.pending = append(st.pending, fedPending{epoch: ep, payload: payload})
			}
			if !pd.Done() {
				return nil, fmt.Errorf("malformed pending section")
			}
		case spillSectionMergeSeen:
			md := wire.NewDec(raw, 0)
			n := md.Uvarint()
			if md.Bad() || n > maxSpillEdges {
				return nil, fmt.Errorf("malformed merge-cursor section")
			}
			st.mergeSeen = make(map[string]uint64, n)
			for j := uint64(0); j < n; j++ {
				id := string(md.Bytes())
				ep := md.Uvarint()
				if md.Bad() {
					return nil, fmt.Errorf("malformed merge cursor")
				}
				st.mergeSeen[id] = ep
			}
			if !md.Done() {
				return nil, fmt.Errorf("malformed merge-cursor section")
			}
		default:
			// Unknown section from a newer build: ignore.
		}
	}
	if !d.Done() {
		return nil, fmt.Errorf("trailing bytes")
	}
	return st, nil
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
	interval := s.SpillSnapshotInterval
	if interval <= 0 {
		interval = defaultSpillSnapshotInterval
	}
	sp.loopStop = make(chan struct{})
	sp.loopDone = make(chan struct{})
	go func() {
		defer close(sp.loopDone)
		t := time.NewTicker(interval)
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
