// Staged ingest: the lock-free hot path between the HTTP handlers and
// the shard folds.
//
// The /report and /reports handlers only decode, validate, and enqueue
// into fixed-size per-shard MPSC ring buffers — no mutex on the producer
// side. One background folder goroutine per shard drains its ring in
// batches and performs the agg/accum/DB folds under the shard lock,
// amortizing one lock acquisition over a whole batch. The idiom is the
// biscuit kernel's bounded circular trap buffer: a hot producer
// decoupled from a slower consumer by atomic head/tail cursors over a
// power-of-two slot array. There is one ring protocol, one producer
// (takeIn) and one consumer loop; the only request folded by its handler
// is a batch longer than a ring, which no reservation could ever hold.
//
// Under overload the ring applies back-pressure instead of growing:
// producers spin briefly, then park in short sleeps up to StageWait,
// then shed the request with 503 + Retry-After. Memory is bounded by
// the ring capacity and throughput degrades to fast rejection, never to
// unbounded queueing — the shed-never-block invariant (DESIGN §13).
//
// Every snapshot consumer passes through drainStaging, a barrier that
// waits until all reports enqueued before the call have folded, so each
// published snapshot remains a serial fold of a definite report subset
// (DESIGN §13 extends §11's argument). Reordering relative to arrival
// is legal because the §2.5 feedback statistics are order-free.
//
// Once Stop or Crash has drained the rings nothing is acknowledged any
// more: takeIn sheds whatever still arrives, exactly like overload.
package collect

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"cbi/internal/report"
	"cbi/internal/telemetry/trace"
)

const (
	// defaultStageCapacity is the per-shard ring size when the server
	// does not set StageCapacity.
	defaultStageCapacity = 1024
	// defaultStageWait bounds how long an enqueue waits for ring space
	// before shedding, when the server does not set StageWait.
	defaultStageWait = 100 * time.Millisecond
	// stageFoldBatch caps how many reports a folder drains per lock
	// acquisition: large enough to amortize the lock, small enough that
	// producers regain ring space promptly.
	stageFoldBatch = 256
	// stageSpin is how many Gosched yields a blocked producer burns
	// before falling back to parked sleeps.
	stageSpin = 64
	// stagePark is the sleep quantum of a parked producer; with the
	// folder freeing hundreds of slots per wake, a handful of parks
	// cover any transient ring-full episode.
	stagePark = 50 * time.Microsecond
	// shedRetryAfter is the Retry-After value (seconds) on a 503: long
	// enough for the folders to turn over the rings several times.
	shedRetryAfter = "1"
)

// stageItem is one enqueued report: the decoded report plus the
// server.ingest span the folder parents its server.fold span to (nil
// without a Tracer).
type stageItem struct {
	rep  *report.Report
	span *trace.Span
}

type stageSlot struct {
	// seq publishes the slot: a producer that reserved absolute
	// position p stores p+1 after writing item, and the folder reads
	// item only once it observes p+1. Freshness across laps needs no
	// reset — position p+cap waits for p+cap+1, which only its own
	// producer ever stores.
	seq  atomic.Uint64
	item stageItem
}

// stageRing is a bounded multi-producer single-consumer queue. head and
// tail are absolute (monotonically increasing) positions; slot index is
// position & mask. Producers CAS-reserve [head, head+n) after checking
// head+n-tail <= capacity, so a reserved slot is always free: tail only
// advances after the folder has copied a slot out. The cursors live on
// separate cache lines so producer CAS traffic does not bounce the
// consumer's line.
type stageRing struct {
	slots []stageSlot
	mask  uint64
	_     [40]byte
	head  atomic.Uint64 // next position producers reserve
	_     [56]byte
	tail  atomic.Uint64 // next position the folder copies out
	// folded trails tail: it advances only after the copied reports
	// have been folded into shard state, so folded >= h proves every
	// report enqueued before head reached h is visible in snapshots.
	folded atomic.Uint64
	_      [40]byte
	// kick wakes the folder; capacity 1 so a burst of publishes
	// coalesces into one pending wake.
	kick chan struct{}
}

func newStageRing(capacity int) stageRing {
	return stageRing{
		slots: make([]stageSlot, capacity),
		mask:  uint64(capacity - 1),
		kick:  make(chan struct{}, 1),
	}
}

// tryReserve claims n contiguous slots, returning the first absolute
// position. It fails (without blocking) when the ring lacks space.
func (r *stageRing) tryReserve(n int) (uint64, bool) {
	for {
		head := r.head.Load()
		if head+uint64(n)-r.tail.Load() > uint64(len(r.slots)) {
			return 0, false
		}
		if r.head.CompareAndSwap(head, head+uint64(n)) {
			return head, true
		}
	}
}

// publish writes one reserved slot and makes it visible to the folder.
func (r *stageRing) publish(pos uint64, it stageItem) {
	slot := &r.slots[pos&r.mask]
	slot.item = it
	slot.seq.Store(pos + 1)
}

// wake nudges the folder without blocking.
func (r *stageRing) wake() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// drainInto copies up to len(buf) contiguously published items out of
// the ring and frees their slots. Single consumer only. It stops at the
// first unpublished slot (a producer mid-publish), which preserves
// reservation order.
func (r *stageRing) drainInto(buf []stageItem) int {
	tail := r.tail.Load()
	n := 0
	for n < len(buf) {
		slot := &r.slots[(tail+uint64(n))&r.mask]
		if slot.seq.Load() != tail+uint64(n)+1 {
			break
		}
		buf[n] = slot.item
		slot.item = stageItem{} // release report/span references
		n++
	}
	if n > 0 {
		r.tail.Store(tail + uint64(n))
	}
	return n
}

// pendingBefore reports whether any report enqueued before the captured
// head position has not yet been folded.
func (r *stageRing) pendingBefore(h uint64) bool { return r.folded.Load() < h }

// ----------------------------------------------------------------------------
// Server-side wiring

// initStaging allocates the rings and launches one folder per shard.
// Called under initOnce, before the Monitor starts (its snapshot worker
// calls drainStaging through ScoreState).
func (s *Server) initStaging() {
	capacity := s.StageCapacity
	if capacity <= 0 {
		capacity = defaultStageCapacity
	}
	if capacity&(capacity-1) != 0 {
		capacity = 1 << bits.Len(uint(capacity))
	}
	s.stageCap = capacity
	s.stageWaitFor = s.StageWait
	if s.stageWaitFor == 0 {
		s.stageWaitFor = defaultStageWait
	}
	s.rings = make([]stageRing, len(s.shards))
	for i := range s.rings {
		s.rings[i] = newStageRing(capacity)
	}
	s.stageStop = make(chan struct{})
	s.stageWG.Add(len(s.rings))
	for i := range s.rings {
		go s.foldLoop(i)
	}
}

// stageEnqueue places reps — already validated — onto ring r as one
// atomic reservation: the whole batch lands or none of it does, so a
// shed request leaves no partial state and the client can safely retry
// it wholesale. It waits (spin, then parked sleeps) up to StageWait for
// space and returns false when the ring stayed full past the deadline.
func (s *Server) stageEnqueue(r *stageRing, reps []*report.Report, span *trace.Span) bool {
	pos, ok := r.tryReserve(len(reps))
	if !ok {
		s.m.stageWaits.Inc()
		var deadline time.Time // set lazily: the spin phase usually wins
		for spin := 0; ; spin++ {
			if spin < stageSpin {
				runtime.Gosched()
			} else {
				if deadline.IsZero() {
					if s.stageWaitFor < 0 { // shed immediately once the spin is spent
						return false
					}
					deadline = time.Now().Add(s.stageWaitFor)
				} else if !time.Now().Before(deadline) {
					return false
				}
				time.Sleep(stagePark)
			}
			if pos, ok = r.tryReserve(len(reps)); ok {
				break
			}
		}
	}
	for i, rep := range reps {
		r.publish(pos+uint64(i), stageItem{rep: rep, span: span})
	}
	r.wake()
	return true
}

// foldLoop is shard i's background folder: it drains ring i in batches
// and folds them into shard i's state under one lock acquisition per
// batch. Which shard a staged report folds into is irrelevant to every
// snapshot — the statistics are order-free and snapshots merge all
// shards — so the folder never re-hashes by run ID.
func (s *Server) foldLoop(i int) {
	defer s.stageWG.Done()
	r := &s.rings[i]
	sh := &s.shards[i]
	sc := &folderScratch{
		buf:   make([]stageItem, stageFoldBatch),
		spans: make([]*trace.Span, stageFoldBatch),
	}
	for {
		n := r.drainInto(sc.buf)
		if n == 0 {
			select {
			case <-r.kick:
				continue
			case <-s.stageStop:
				// Stop drains before signaling, but sweep once more in
				// case a straggling handler raced the stop flag.
				for {
					if n := r.drainInto(sc.buf); n == 0 {
						return
					}
					s.foldStaged(r, sh, sc, n)
				}
			}
		}
		s.foldStaged(r, sh, sc, n)
	}
}

// folderScratch is one folder goroutine's reusable working memory: the
// drain buffer, the per-batch merged statistics, and the per-report
// fold-span slots. Owned by exactly one foldLoop, never shared.
type folderScratch struct {
	buf   []stageItem
	bs    report.BatchStats
	spans []*trace.Span
}

// foldStaged folds one drained batch under a single shard-lock
// acquisition, then advances the ring's folded cursor — the order that
// makes the drain barrier sound: a snapshot that observed folded >= h
// sees every fold (and its trace span) from positions below h.
//
// When the server has no site spans configured, the batch is pre-merged
// into per-counter deltas outside the lock (report.BatchStats) and
// applied with one pass per consumer structure — bit-identical to
// per-report folds because every statistic is an order-free integer
// sum, but traversing each report's nonzeros once instead of once per
// structure and touching the big per-counter arrays once per distinct
// index per batch. Site-span accumulators count per-report site
// observations, which a per-counter merge cannot reconstruct, so they
// take the per-report path.
func (s *Server) foldStaged(r *stageRing, sh *ingestShard, sc *folderScratch, n int) {
	items := sc.buf[:n]
	if len(s.Sites) == 0 && n > 1 {
		s.foldStagedMerged(sh, sc, items)
	} else {
		sh.mu.Lock()
		for idx := range items {
			it := &items[idx]
			foldSpan := it.span.StartChild("server.fold")
			t0 := time.Now()
			err := s.foldShardLocked(sh, it.rep)
			s.m.foldSeconds.Observe(time.Since(t0).Seconds())
			foldSpan.End()
			if err != nil {
				// Unreachable: the handler validated before enqueueing, and
				// validation pins the one shape and program every shard folds.
				panic(fmt.Sprintf("collect: staged fold: %v", err))
			}
		}
		sh.mu.Unlock()
	}
	s.m.stageBatches.Observe(float64(len(items)))
	for range items {
		s.Monitor.ReportFolded()
	}
	r.folded.Add(uint64(len(items)))
}

// foldStagedMerged is the batch-amortized fold path. The merge runs
// outside the shard lock; the lock is held only for the per-index
// apply (and the DB appends in StoreAll mode). fold_seconds keeps its
// per-report semantics — each report observes its share of the batch
// fold time, so the histogram count stays "reports folded" and the sum
// stays "seconds spent folding" in both fold paths.
func (s *Server) foldStagedMerged(sh *ingestShard, sc *folderScratch, items []stageItem) {
	t0 := time.Now()
	sc.bs.Reset(items[0].rep.NumCounters())
	for idx := range items {
		it := &items[idx]
		sc.spans[idx] = it.span.StartChild("server.fold")
		if err := sc.bs.Observe(it.rep); err != nil {
			// Unreachable: validation pinned one shape before enqueue.
			panic(fmt.Sprintf("collect: staged fold: %v", err))
		}
	}
	sh.mu.Lock()
	errAgg := sh.agg.FoldBatch(&sc.bs)
	var errAcc error
	if sh.acc != nil {
		errAcc = sh.acc.FoldBatch(&sc.bs)
	}
	var errDB error
	if s.mode == StoreAll {
		if sh.db.NumCounters == 0 {
			sh.db.NumCounters = sh.agg.NumCounters
		}
		for idx := range items {
			if errDB = sh.db.Add(items[idx].rep); errDB != nil {
				break
			}
		}
	}
	sh.mu.Unlock()
	if errAgg != nil || errAcc != nil || errDB != nil {
		// Unreachable, as in the per-report path.
		panic(fmt.Sprintf("collect: staged batch fold: %v %v %v", errAgg, errAcc, errDB))
	}
	share := time.Since(t0).Seconds() / float64(len(items))
	for idx := range items {
		s.m.foldSeconds.Observe(share)
		sc.spans[idx].End()
		sc.spans[idx] = nil
	}
}

// drainStaging is the snapshot drain barrier: it blocks until every
// report enqueued before the call has been folded into shard state.
// Each published snapshot (Aggregate, DB, ScoreState, ScoreStateAndDB,
// fresh /stats, /quality) is therefore a serial fold of a definite
// subset of the accepted reports — exactly the reports whose 202 was
// sent before the barrier, plus possibly some newer ones.
func (s *Server) drainStaging() {
	for i := range s.rings {
		r := &s.rings[i]
		h := r.head.Load()
		if !r.pendingBefore(h) {
			continue
		}
		r.wake()
		for spin := 0; r.pendingBefore(h); spin++ {
			if spin < stageSpin {
				runtime.Gosched()
			} else {
				time.Sleep(stagePark)
			}
		}
	}
}

// stopStaging drains the rings and retires the folder goroutines; part
// of Stop, after the HTTP server has shut down (so no handler is still
// enqueueing) and before the Monitor stops (folders notify it). From the
// moment the flag is set takeIn sheds instead of enqueueing.
func (s *Server) stopStaging() {
	if s.rings == nil { // Stop on a server that never initialised
		return
	}
	s.stageStopOnce.Do(func() {
		s.stageStopped.Store(true)
		s.drainStaging()
		close(s.stageStop)
	})
	s.stageWG.Wait()
}
