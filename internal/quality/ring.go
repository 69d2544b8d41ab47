package quality

// ring.go is the forensic ring buffer: a bounded window of recently
// rejected (or quarantined) payloads, each retained as a truncated hex
// dump with its rejection reason and timestamp. In a ~60M-user
// deployment the collector cannot keep every bad payload, but keeping
// the last few dozen turns "rejection counter moved" into "here is what
// the misbehaving client actually sent" — served at /debug/badreports.

import (
	"encoding/hex"
	"sync"
	"time"
)

// BadReport is one retained forensic sample.
type BadReport struct {
	Seq    uint64 `json:"seq"`
	UnixMs int64  `json:"unix_ms"`
	Reason string `json:"reason"`
	// RunID is set when the payload decoded far enough to carry one
	// (quarantined reports); 0 otherwise.
	RunID uint64 `json:"run_id,omitempty"`
	// Size is the original payload length; Hex holds at most 128 bytes
	// of it, Truncated says whether anything was cut.
	Size      int    `json:"size"`
	Truncated bool   `json:"truncated"`
	Hex       string `json:"hex"`
}

type ring struct {
	mu          sync.Mutex
	buf         []BadReport
	next        int
	total       uint64
	sampleBytes int
}

// newRing retains the last size payloads, keep bytes of each.
func newRing(size, keep int) *ring {
	return &ring{buf: make([]BadReport, 0, size), sampleBytes: keep}
}

// record retains one bad payload, overwriting the oldest entry when
// full. The hex dump is rendered here, off the reject path's error
// response but before the payload buffer is reused. size is the
// original payload length when the caller no longer holds the bytes
// (quarantined reports are recorded after folding, by wire length).
func (r *ring) record(reason Reason, runID uint64, size int, payload []byte) {
	sample := payload
	truncated := false
	if len(sample) > r.sampleBytes {
		sample = sample[:r.sampleBytes]
		truncated = true
	}
	if size < len(payload) {
		size = len(payload)
	}
	entry := BadReport{
		UnixMs:    time.Now().UnixMilli(),
		Reason:    reason.String(),
		RunID:     runID,
		Size:      size,
		Truncated: truncated || size > len(sample),
		Hex:       hex.EncodeToString(sample),
	}
	r.mu.Lock()
	r.total++
	entry.Seq = r.total
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, entry)
	} else {
		r.buf[r.next] = entry
		r.next = (r.next + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// snapshot returns the retained samples, newest first, plus the total
// ever recorded.
func (r *ring) snapshot() ([]BadReport, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BadReport, 0, len(r.buf))
	for i := len(r.buf) - 1; i >= 0; i-- {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out, r.total
}
