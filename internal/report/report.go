// Package report defines the per-run feedback record of §2.5 — a vector
// of predicate counters plus a success/crash flag — together with a
// compact wire codec, an in-memory database, and aggregate ("sufficient
// statistics") summaries that support the elimination strategies without
// retaining individual runs (§5's privacy mechanism).
package report

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cbi/internal/wire"
)

// Report is the result of one remote run. Its size is dominated by the
// counter vector, whose length is fixed by the instrumented program, "
// largely independent of the sampling density or running time" (§2.5).
// A report built in process (the VM, a fleet generator) holds the dense
// Counters; a decoded one never does, only its nonzero pairs (Nonzeros)
// and its counter-space size (NumCounters).
type Report struct {
	// RunID identifies the run (assigned by the generator or collector).
	RunID uint64
	// Program names the instrumented program build, so a collector can
	// reject mismatched counter spaces.
	Program string
	// Crashed records whether the run was aborted by a fatal signal
	// (§3.3.1's binary outcome label).
	Crashed bool
	// TrapKind describes the crash ("out-of-bounds access", ...).
	TrapKind string
	// ExitCode is main's return value for successful runs.
	ExitCode int64
	// Counters holds how often each predicate was observed true (nil if decoded).
	Counters []uint64
	// Trace optionally holds the site IDs of the last few sampled probe
	// firings in order (the bounded partial trace the paper defers to
	// future work in §2.5).
	Trace []int

	// nz holds the nonzero (index, value) pairs in ascending index order.
	// At realistic sampling densities a counter vector is overwhelmingly
	// zeros, so every consumer iterates this instead of scanning a dense
	// vector. Decode fills it from the wire pairs, and it is all a decoded
	// report has; for a report built in process Nonzeros builds it on
	// demand from Counters, which must not be mutated after that — every
	// pipeline path treats reports as immutable once constructed.
	nz []CounterNZ
	n  int // the counter-space size of a decoded report

	// wire is the encoded size in bytes this report arrived as (set by
	// Decode; 0 for reports constructed in process), and lenient records
	// whether Decode accepted it only through the leniency path
	// (duplicate counter indices or explicit zero pairs — see Decode).
	// Ingest-quality accounting reads both via WireLen and Lenient.
	wire    int
	lenient bool
}

// NumCounters returns the size of the report's counter space: the length
// of Counters for a report built in process, the size its encoding
// claimed for a decoded one.
func (r *Report) NumCounters() int {
	if r.Counters != nil {
		return len(r.Counters)
	}
	return r.n
}

// WireLen returns the encoded size in bytes the report was decoded
// from, or 0 if it was constructed in process.
func (r *Report) WireLen() int { return r.wire }

// Lenient reports whether Decode accepted this report through the
// leniency path: duplicate counter indices or explicit zero pairs,
// encodings no real client produces. Such reports still fold, but the
// collector quarantine-counts them.
func (r *Report) Lenient() bool { return r.lenient }

// CounterNZ is one nonzero counter: its index in the program's counter
// space and its observed count.
type CounterNZ struct {
	Index int32
	Value uint64
}

// Nonzeros returns the report's nonzero counters in ascending index
// order. On a report built in process the first call builds and caches
// them, mutating it, so concurrent callers must call Nonzeros once before
// sharing it across goroutines; ForEachNonzero never mutates.
func (r *Report) Nonzeros() []CounterNZ {
	if r.nz == nil {
		n := 0
		for _, c := range r.Counters {
			if c != 0 {
				n++
			}
		}
		r.nz = appendNonzeros(make([]CounterNZ, 0, n), r.Counters)
	}
	return r.nz
}

// CachedNonzeros returns the sparse form if the report carries one
// (every decoded report does, and every report Nonzeros was called on)
// and nil if it does not; it never mutates the report. The per-report
// folds range over it, so that their inner loops do not
// depend on the compiler inlining ForEachNonzero and its callback, and
// fall back to ForEachNonzero for a report without a cache.
func (r *Report) CachedNonzeros() []CounterNZ { return r.nz }

// ForEachNonzero calls f for every nonzero counter in ascending index
// order. It uses the cached sparse form when one exists and falls back
// to a dense scan otherwise, never mutating the report — safe for
// concurrent use on a report that is no longer being written.
func (r *Report) ForEachNonzero(f func(i int, c uint64)) {
	if r.nz != nil {
		for _, e := range r.nz {
			f(int(e.Index), e.Value)
		}
		return
	}
	for i, c := range r.Counters {
		if c != 0 {
			f(i, c)
		}
	}
}

// Label returns the logistic-regression outcome: 1 for a crash, 0 for a
// successful run.
func (r *Report) Label() int {
	if r.Crashed {
		return 1
	}
	return 0
}

// ----------------------------------------------------------------------------
// Wire codec

// The format is deliberately sparse: most counters are zero in any given
// sampled run, so counters are encoded as (index delta, value) varint
// pairs.
//
//	magic "CBR1"
//	varint RunID
//	varint len(Program), bytes
//	byte   crashed (0/1)
//	varint len(TrapKind), bytes
//	varint zigzag(ExitCode)
//	varint NumCounters
//	varint #nonzero
//	repeated: varint indexDelta, varint value
//	varint len(Trace)
//	repeated: varint siteID

const magic = "CBR1"

// MaxCounters is the largest counter space the format admits. A decoder
// that knows its program's counter space (DecodeShaped) never allocates
// on a claim that differs from it; one that does not allocates at most
// this many counters, 2 GiB, on a report's say-so.
const MaxCounters = 1 << 28

// maxTrace bounds the partial trace a report may carry.
const maxTrace = 1 << 20

// ErrBadReport is returned by Decode for malformed input.
var ErrBadReport = errors.New("report: malformed encoding")

// ErrShape is returned by DecodeShaped and DecodeBatchShaped for a
// well-formed header that claims another counter space than the
// receiver's.
var ErrShape = errors.New("report: counter vector length does not match")

// The encoder works from the report's nonzero pairs alone: the cache
// when the report carries one (Nonzeros builds it from the vector beside
// it, so both list the same pairs), otherwise pairs gathered by one scan
// of the vector into pooled scratch. A sizing pass over the pairs gives
// the exact length, so the bytes are written once, in place.

// encodePlan is the sizing pass of one Encode or EncodeBatch call.
type encodePlan struct {
	frames []framePlan
	pairs  []CounterNZ // pairs of the reports that came without a cache, back to back
}

type framePlan struct {
	size   int // exact encoded length of the report
	lo, hi int // its pairs are plan.pairs[lo:hi]; lo < 0 means the report's own cache
}

var planPool = sync.Pool{New: func() any { return new(encodePlan) }}

func getPlan() *encodePlan {
	p := planPool.Get().(*encodePlan)
	p.frames, p.pairs = p.frames[:0], p.pairs[:0]
	return p
}

// add sizes r and returns its exact encoded length.
func (p *encodePlan) add(r *Report) int {
	f := framePlan{lo: -1}
	nz := r.nz
	if nz == nil {
		f.lo = len(p.pairs)
		p.pairs = appendNonzeros(p.pairs, r.Counters)
		f.hi = len(p.pairs)
		nz = p.pairs[f.lo:f.hi]
	}
	f.size = r.encodedLen(nz)
	p.frames = append(p.frames, f)
	return f.size
}

// pairsOf returns the nonzero pairs of r, the i-th report added.
func (p *encodePlan) pairsOf(i int, r *Report) []CounterNZ {
	if f := p.frames[i]; f.lo >= 0 {
		return p.pairs[f.lo:f.hi]
	}
	return r.nz
}

// appendNonzeros appends the nonzero entries of a dense vector.
func appendNonzeros(nz []CounterNZ, counters []uint64) []CounterNZ {
	for i, c := range counters {
		if c != 0 {
			nz = append(nz, CounterNZ{Index: int32(i), Value: c})
		}
	}
	return nz
}

// encodedLen returns the exact length of r's encoding, nz being its
// nonzero pairs.
func (r *Report) encodedLen(nz []CounterNZ) int {
	n := len(magic) + wire.UvarintLen(r.RunID) +
		wire.UvarintLen(uint64(len(r.Program))) + len(r.Program) + 1 +
		wire.UvarintLen(uint64(len(r.TrapKind))) + len(r.TrapKind) +
		wire.VarintLen(r.ExitCode) +
		wire.UvarintLen(uint64(r.NumCounters())) + wire.UvarintLen(uint64(len(nz))) +
		2*len(nz) + wire.UvarintLen(uint64(len(r.Trace)))
	prev := int32(0)
	for _, e := range nz {
		// Two bytes a pair, already counted, unless a field needs more.
		if d := uint64(e.Index - prev); d|e.Value >= 0x80 {
			n += wire.UvarintLen(d) + wire.UvarintLen(e.Value) - 2
		}
		prev = e.Index
	}
	for _, id := range r.Trace {
		n += wire.UvarintLen(uint64(id))
	}
	return n
}

// appendEncoded appends r's encoding, nz being its nonzero pairs. With
// encodedLen(nz) bytes of spare capacity in buf it does not allocate.
func (r *Report) appendEncoded(buf []byte, nz []CounterNZ) []byte {
	e := wire.Enc{Buf: append(buf, magic...)}
	e.Uvarint(r.RunID)
	e.String(r.Program)
	if r.Crashed {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
	e.String(r.TrapKind)
	e.Varint(r.ExitCode)
	e.Uvarint(uint64(r.NumCounters()))
	e.Uvarint(uint64(len(nz)))
	prev := int32(0)
	for _, c := range nz {
		e.Uvarint(uint64(c.Index - prev))
		e.Uvarint(c.Value)
		prev = c.Index
	}
	e.Uvarint(uint64(len(r.Trace)))
	for _, id := range r.Trace {
		e.Uvarint(uint64(id))
	}
	return e.Buf
}

// AppendEncoded appends the report's encoding to buf and returns the
// extended slice, growing it at most once and by the exact amount.
func (r *Report) AppendEncoded(buf []byte) []byte {
	p := getPlan()
	defer planPool.Put(p)
	size := p.add(r)
	return r.appendEncoded(slices.Grow(buf, size), p.pairsOf(0, r))
}

// Encode serializes the report.
func (r *Report) Encode() []byte { return r.AppendEncoded(nil) }

// Decode parses a report encoded by Encode.
func Decode(data []byte) (*Report, error) { return DecodeShaped(data, 0) }

// DecodeShaped is Decode for a receiver that knows its counter space:
// with numCounters nonzero, a report claiming any other vector length is
// rejected with ErrShape.
func DecodeShaped(data []byte, numCounters int) (*Report, error) {
	r := new(Report)
	var mem slab
	if err := mem.decode(r, data, numCounters, 0); err != nil {
		return nil, err
	}
	return r, nil
}

// A slab hands decoded reports their memory. DecodeBatch carves the
// Report structs and the pair slices of a whole request out of one chunk
// each instead of two small objects per report; the zero slab, given no
// look-ahead, allocates exactly what one report needs. Chunks are capped,
// so a single report retained from a batch pins at most slabReports
// structs and slabPairs pairs besides its own: about 550 KiB.
type slab struct {
	reports []Report
	pairs   []CounterNZ
}

const (
	slabReports = 256     // 38 KiB of Report structs
	slabPairs   = 1 << 15 // 512 KiB of pairs
)

// report returns a zero Report; frames is how many the caller still
// expects to ask for, this one included.
func (m *slab) report(frames int) *Report {
	if len(m.reports) == 0 {
		m.reports = make([]Report, min(frames, slabReports))
	}
	r := &m.reports[0]
	m.reports = m.reports[1:]
	return r
}

// nonzeros returns a pair slice of length n; ahead is how many more
// pairs the caller may ask for later (0: none).
func (m *slab) nonzeros(n, ahead int) []CounterNZ {
	if n == 0 {
		return []CounterNZ{}
	}
	if n > len(m.pairs) {
		m.pairs = make([]CounterNZ, max(n, min(ahead, slabPairs)))
	}
	nz := m.pairs[:n:n]
	m.pairs = m.pairs[n:]
	return nz
}

// lastProgram and lastTrap remember the program name and the trap kind
// decoded last. A collector and a report file name one program in every
// report, and their crashes mostly share a trap kind; reusing the string
// saves each decoded report its own copy.
var lastProgram, lastTrap atomic.Pointer[string]

func intern(last *atomic.Pointer[string], b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if p := last.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	last.Store(&s)
	return s
}

// decode parses one CBR1 frame into the zero Report r, taking its
// memory from m. want, when nonzero, is the only counter-space size
// accepted; ahead sizes the pair chunk (see nonzeros). Every length a
// header claims is checked against the bytes that remain before anything
// is allocated for it; the counter space itself is never allocated.
func (m *slab) decode(r *Report, data []byte, want, ahead int) error {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return ErrBadReport
	}
	d := wire.NewDec(data, len(magic))
	r.wire = len(data)
	r.RunID = d.Uvarint()
	r.Program = intern(&lastProgram, d.Bytes())
	r.Crashed = d.Byte() != 0
	r.TrapKind = intern(&lastTrap, d.Bytes())
	r.ExitCode = d.Varint()
	n := d.Uvarint()
	nnz := d.Uvarint()
	// A pair is at least two bytes.
	if d.Bad() || n > MaxCounters || nnz > n || nnz > uint64(d.Remaining()/2) {
		return ErrBadReport
	}
	if want != 0 && n != uint64(want) {
		return fmt.Errorf("%w: %d, want %d", ErrShape, n, want)
	}
	nz := m.nonzeros(int(nnz), ahead)
	strict, sorted := true, true
	idx, off := 0, d.Offset()
	for i := range nz {
		var delta, val uint64
		if off+1 < len(data) && data[off]|data[off+1] < 0x80 {
			// Both fields one byte long: nearly every pair.
			delta, val = uint64(data[off]), uint64(data[off+1])
			off += 2
		} else {
			d = wire.NewDec(data, off)
			delta, val = d.Uvarint(), d.Uvarint()
			if d.Bad() {
				return ErrBadReport
			}
			off = d.Offset()
			// A delta of 2^63 or more wraps the index backwards, which is
			// accepted unflagged.
			sorted = sorted && int(delta) >= 0
		}
		idx += int(delta)
		if uint(idx) >= uint(n) {
			return ErrBadReport
		}
		nz[i] = CounterNZ{Index: int32(idx), Value: val}
		// A duplicate index (delta 0 past the first pair) or an explicit
		// zero never comes from Encode but was historically accepted;
		// keep accepting it, flagged as lenient.
		if val == 0 || (delta == 0 && i > 0) {
			strict = false
		}
	}
	d = wire.NewDec(data, off)
	tn := d.Uvarint()
	if d.Bad() || tn > maxTrace || tn > uint64(d.Remaining()) {
		return ErrBadReport
	}
	if !strict || !sorted {
		nz = canonicalize(nz)
	}
	r.n, r.nz, r.lenient = int(n), nz, !strict
	if tn > 0 {
		r.Trace = make([]int, tn)
		for i := range r.Trace {
			r.Trace[i] = int(d.Uvarint())
		}
		if d.Bad() {
			return ErrBadReport
		}
	}
	return nil
}

// canonicalize rewrites in place the pairs of input Encode never writes
// into the pairs it would have written for the vector the input
// describes: ascending indices, the last value given for each index,
// zeros dropped.
func canonicalize(nz []CounterNZ) []CounterNZ {
	slices.SortStableFunc(nz, func(a, b CounterNZ) int { return int(a.Index) - int(b.Index) })
	w := 0
	for i, e := range nz {
		if e.Value != 0 && (i+1 == len(nz) || nz[i+1].Index != e.Index) {
			nz[w] = e
			w++
		}
	}
	return nz[:w]
}

// ----------------------------------------------------------------------------
// Database

// DB is an in-memory collection of reports for one program build.
type DB struct {
	Program     string
	NumCounters int
	Reports     []*Report
}

// NewDB creates an empty database for a program with the given counter
// space.
func NewDB(program string, numCounters int) *DB {
	return &DB{Program: program, NumCounters: numCounters}
}

// Add appends a report, validating its shape.
func (db *DB) Add(r *Report) error {
	if db.Program != "" && r.Program != "" && r.Program != db.Program {
		return fmt.Errorf("report: program %q does not match database %q", r.Program, db.Program)
	}
	if db.NumCounters != 0 && r.NumCounters() != db.NumCounters {
		return fmt.Errorf("report: counter vector length %d, want %d", r.NumCounters(), db.NumCounters)
	}
	db.Reports = append(db.Reports, r)
	return nil
}

// Len returns the number of reports.
func (db *DB) Len() int { return len(db.Reports) }

// Successes returns the successful runs.
func (db *DB) Successes() []*Report { return db.filter(false) }

// Failures returns the crashed runs.
func (db *DB) Failures() []*Report { return db.filter(true) }

func (db *DB) filter(crashed bool) []*Report {
	var out []*Report
	for _, r := range db.Reports {
		if r.Crashed == crashed {
			out = append(out, r)
		}
	}
	return out
}

// TotalCounts merges all counter vectors by summation, visiting only
// each report's nonzero counters.
func (db *DB) TotalCounts() []uint64 {
	total := make([]uint64, db.NumCounters)
	for _, r := range db.Reports {
		r.ForEachNonzero(func(i int, c uint64) {
			total[i] += c
		})
	}
	return total
}

// ----------------------------------------------------------------------------
// Sufficient statistics

// Aggregate maintains exactly the statistics the elimination strategies
// need, without retaining individual runs: per-counter "ever observed
// true" bits split by outcome, plus totals. Once folded in, a report can
// be discarded — the §5 privacy property ("if the analysis host is
// compromised, an attacker cannot recover the precise details of any
// single past trace").
type Aggregate struct {
	Program          string
	NumCounters      int
	Runs             int
	Crashes          int
	NonzeroInSuccess []bool
	NonzeroInFailure []bool
	Totals           []uint64
}

// NewAggregate creates an empty aggregate.
func NewAggregate(program string, numCounters int) *Aggregate {
	return &Aggregate{
		Program:          program,
		NumCounters:      numCounters,
		NonzeroInSuccess: make([]bool, numCounters),
		NonzeroInFailure: make([]bool, numCounters),
		Totals:           make([]uint64, numCounters),
	}
}

// Fold absorbs one report. An aggregate created with zero counters (a
// collector run with "accept any" shape) adopts the shape of the first
// report folded into it.
func (a *Aggregate) Fold(r *Report) error {
	if a.NumCounters == 0 && a.Runs == 0 && r.NumCounters() > 0 {
		a.NumCounters = r.NumCounters()
		a.NonzeroInSuccess = make([]bool, a.NumCounters)
		a.NonzeroInFailure = make([]bool, a.NumCounters)
		a.Totals = make([]uint64, a.NumCounters)
	}
	if r.NumCounters() != a.NumCounters {
		return fmt.Errorf("report: counter vector length %d, want %d", r.NumCounters(), a.NumCounters)
	}
	a.Runs++
	if r.Crashed {
		a.Crashes++
	}
	// Iterate the sparse form when the report carries one (every decoded
	// report does): at 1/100 sampling a counter vector is overwhelmingly
	// zeros, so folding nonzeros is the difference between O(observed)
	// and O(counter space) per report.
	hit := a.NonzeroInSuccess
	if r.Crashed {
		hit = a.NonzeroInFailure
	}
	if r.nz != nil {
		for _, e := range r.nz {
			a.Totals[e.Index] += e.Value
			hit[e.Index] = true
		}
		return nil
	}
	r.ForEachNonzero(func(i int, c uint64) {
		a.Totals[i] += c
		hit[i] = true
	})
	return nil
}

// FromDB folds an entire database.
func (a *Aggregate) FromDB(db *DB) error {
	for _, r := range db.Reports {
		if err := a.Fold(r); err != nil {
			return err
		}
	}
	return nil
}

// Merge absorbs another aggregate into a. Because every statistic here
// is order-free (run/crash counts sum, "ever nonzero" bits OR, totals
// sum), folding reports into shards and merging the shards yields
// exactly the same aggregate as folding every report serially — the
// property that makes concurrent sharded collection legal. An aggregate
// that has not yet fixed its counter shape adopts o's, mirroring Fold.
func (a *Aggregate) Merge(o *Aggregate) error {
	if o.Runs == 0 && o.NumCounters == 0 {
		return nil
	}
	if a.NumCounters == 0 && a.Runs == 0 && o.NumCounters > 0 {
		a.NumCounters = o.NumCounters
		a.NonzeroInSuccess = make([]bool, o.NumCounters)
		a.NonzeroInFailure = make([]bool, o.NumCounters)
		a.Totals = make([]uint64, o.NumCounters)
	}
	if o.NumCounters != a.NumCounters {
		return fmt.Errorf("report: aggregate shape %d, want %d", o.NumCounters, a.NumCounters)
	}
	if a.Program == "" {
		a.Program = o.Program
	}
	a.Runs += o.Runs
	a.Crashes += o.Crashes
	for i := 0; i < o.NumCounters; i++ {
		a.Totals[i] += o.Totals[i]
		a.NonzeroInSuccess[i] = a.NonzeroInSuccess[i] || o.NonzeroInSuccess[i]
		a.NonzeroInFailure[i] = a.NonzeroInFailure[i] || o.NonzeroInFailure[i]
	}
	return nil
}
