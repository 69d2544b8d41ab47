package collect

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbi/internal/report"
)

// allocatedBy returns the bytes f allocates on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCounterClaimRejectedBeforeAllocation: a 32-byte body
// claiming 2^28 counters costs a 1 792-counter collector a 400 and a few
// KiB, not a 2 GiB vector, alone and as every frame of a batch, and is
// counted as a decode rejection.
func TestHostileCounterClaimRejectedBeforeAllocation(t *testing.T) {
	srv := NewServer("bc", 1792, AggregateOnly)
	h := srv.Handler()
	defer srv.Stop()

	claim := []byte("CBR1")
	claim = append(claim, 1, 2, 'b', 'c', 0, 0, 0) // run 1, program "bc", not crashed, no trap kind, exit 0
	claim = binary.AppendUvarint(claim, 1<<28)     // counters
	claim = append(claim, 1, 5, 9, 0)              // one pair, no trace
	claim = append(claim, make([]byte, 32-len(claim))...)
	if len(claim) != 32 {
		t.Fatalf("test body is %d bytes", len(claim))
	}
	batch := binary.AppendUvarint([]byte("CBB1"), 64)
	for i := 0; i < 64; i++ {
		batch = append(binary.AppendUvarint(batch, uint64(len(claim))), claim...)
	}

	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	post("/report", mkBC(1).Encode()) // warm the handler's lazily built state
	rejected := srv.Registry().Counter(`collect_reports_rejected_total{reason="decode"}`)
	for _, c := range []struct {
		path string
		body []byte
	}{{"/report", claim}, {"/reports", claim}, {"/reports", batch}} {
		before := rejected.Value()
		var rec *httptest.ResponseRecorder
		got := allocatedBy(func() { rec = post(c.path, c.body) })
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s (%d bytes): status %d, want 400", c.path, len(c.body), rec.Code)
		}
		if got >= 64<<10 {
			t.Errorf("%s (%d bytes): allocated %d bytes before rejecting, want < 64 KiB", c.path, len(c.body), got)
		}
		if rejected.Value() != before+1 {
			t.Errorf("%s (%d bytes): not counted as a decode rejection", c.path, len(c.body))
		}
	}
	if agg := srv.Aggregate(); agg.Runs != 1 {
		t.Errorf("collector folded %d runs, want the 1 valid report", agg.Runs)
	}
}

func mkBC(id uint64) *report.Report {
	r := &report.Report{RunID: id, Program: "bc", Counters: make([]uint64, 1792)}
	r.Counters[id%1792] = 1
	return r
}

// TestReadBodyEdgeCases drives the one body reader behind /report,
// /reports and /merge with the Content-Length headers a client can get
// wrong.
func TestReadBodyEdgeCases(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	srv.AcceptMerges = true
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	t.Run("chunked upload without Content-Length", func(t *testing.T) {
		// A body of unknown length is sent chunked; several reports make it
		// longer than the reader's first buffer.
		reps := make([]*report.Report, 200)
		for i := range reps {
			reps[i] = mkReport(uint64(1000+i), false)
		}
		body := report.EncodeBatch(reps)
		req, _ := http.NewRequest(http.MethodPost, base+"/reports", io.MultiReader(bytes.NewReader(body)))
		req.ContentLength = -1 // unknown: the transport sends it chunked
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chunked batch: %s, want 202", resp.Status)
		}
		if got := srv.Aggregate().Runs; got != len(reps) {
			t.Errorf("folded %d runs, want %d", got, len(reps))
		}
	})

	// rawPost writes a request by hand, so the header can lie.
	rawPost := func(t *testing.T, path string, contentLength int, body []byte, closeWrite bool) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		head := "POST " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: " +
			strconv.Itoa(contentLength) + "\r\n\r\n"
		if _, err := conn.Write(append([]byte(head), body...)); err != nil {
			t.Fatal(err)
		}
		if closeWrite {
			conn.(*net.TCPConn).CloseWrite()
		}
		reply, _ := io.ReadAll(conn)
		line, _, _ := strings.Cut(string(reply), "\r\n")
		return line
	}

	t.Run("Content-Length larger than the bytes sent", func(t *testing.T) {
		before := srv.Registry().Counter(`collect_reports_rejected_total{reason="read"}`).Value()
		enc := mkReport(7, false).Encode()
		if line := rawPost(t, "/report", len(enc)+100, enc, true); !strings.Contains(line, "400") {
			t.Errorf("short body: %q, want 400", line)
		}
		if got := srv.Registry().Counter(`collect_reports_rejected_total{reason="read"}`).Value(); got != before+1 {
			t.Errorf("read rejections %d, want %d", got, before+1)
		}
	})

	t.Run("Content-Length of MaxBodyBytes+1 presizes a few MiB, not 64", func(t *testing.T) {
		// The body never arrives: the reader must not have set 64 MiB aside
		// on the header's word alone.
		var line string
		got := allocatedBy(func() { line = rawPost(t, "/reports", MaxBodyBytes+1, []byte("CBB1"), true) })
		if !strings.Contains(line, "400") {
			t.Errorf("announced-but-unsent body: %q, want 400", line)
		}
		if got > 2*maxBodyPresize {
			t.Errorf("allocated %d bytes for an announced body that never came, want about %d", got, maxBodyPresize)
		}
	})

	t.Run("body of MaxBodyBytes+1 is 413 on /merge too", func(t *testing.T) {
		// /report and /reports: TestOversizeBodyRejectedWith413. /merge
		// reads through the same helper, at the same limit.
		resp, err := http.Post(base+"/merge", "application/octet-stream", bytes.NewReader(make([]byte, MaxBodyBytes+1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("/merge: %s, want 413", resp.Status)
		}
	})

	t.Run("body of exactly MaxBodyBytes is read whole", func(t *testing.T) {
		// At the limit the body is not oversize; it is rejected for what it
		// holds (zeros), so 400 rather than 413.
		resp, err := http.Post(base+"/report", "application/octet-stream", bytes.NewReader(make([]byte, MaxBodyBytes)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body at the limit: %s, want 400", resp.Status)
		}
	})
}

// deadlineRecorder takes a read deadline the way a connection's writer
// does; a bare httptest.ResponseRecorder answers ErrNotSupported, and
// building that error allocates.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetReadDeadline(time.Time) error { return nil }

// TestReadLimitedAllocatesOnce: with an honest Content-Length the body
// lands in one buffer of about its own size.
func TestReadLimitedAllocatesOnce(t *testing.T) {
	body := bytes.Repeat([]byte{0xab}, 25<<10)
	var got []byte
	rec := deadlineRecorder{httptest.NewRecorder()}
	allocs := testing.AllocsPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, "/reports", bytes.NewReader(body))
		got, _ = readLimited(rec, req)
	})
	if !bytes.Equal(got, body) {
		t.Fatal("body not read back intact")
	}
	// httptest.NewRequest itself allocates; a doubling read of 25 KiB
	// from 512 B would add seven buffers on top.
	base := testing.AllocsPerRun(20, func() {
		httptest.NewRequest(http.MethodPost, "/reports", bytes.NewReader(body))
	})
	if allocs-base > 2 {
		t.Errorf("readLimited made %.0f allocations for a body of known length, want at most 2", allocs-base)
	}
}

// TestTricklingBodyMeetsTheReadDeadline: a sender that feeds its body a
// byte at a time — every read makes progress, so no idle timer would
// fire — is cut off at the deadline with a 400 counted reason="read",
// and the collector serves the next connection as if nothing happened.
func TestTricklingBodyMeetsTheReadDeadline(t *testing.T) {
	old := bodyReadTimeout
	bodyReadTimeout = 200 * time.Millisecond
	defer func() { bodyReadTimeout = old }()
	srv := NewServer("p", 3, StoreAll)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop() // before bodyReadTimeout is restored: no handler still reads it

	for _, path := range []string{"/report", "/reports"} {
		before := srv.m.rejectedRead.Value()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		t0 := time.Now()
		if _, err := conn.Write([]byte("POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
					conn.Write([]byte{0}) // fails once the server hangs up; so be it
				}
			}
		}()
		reply, _ := io.ReadAll(conn)
		close(stop)
		conn.Close()
		line, _, _ := strings.Cut(string(reply), "\r\n")
		if !strings.Contains(line, "400") {
			t.Errorf("%s: trickled body answered %q, want 400", path, line)
		}
		if took := time.Since(t0); took > 5*time.Second {
			t.Errorf("%s: trickling POST held its connection for %v with a %v deadline", path, took, bodyReadTimeout)
		}
		if got := srv.m.rejectedRead.Value(); got != before+1 {
			t.Errorf(`%s: collect_reports_rejected_total{reason="read"} = %d, want %d`, path, got, before+1)
		}
	}

	resp, err := http.Post("http://"+addr+"/report", "application/octet-stream", bytes.NewReader(mkReport(1, false).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("report on a fresh connection: %s, want 202", resp.Status)
	}
	if got := srv.Aggregate().Runs; got != 1 {
		t.Errorf("%d runs, want 1", got)
	}
}
