package collect

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cbi/internal/quality"
	"cbi/internal/report"
)

// TestQualityEndpointsMounted verifies the collector mounts /quality and
// /debug/badreports when an engine is attached, and not otherwise.
func TestQualityEndpointsMounted(t *testing.T) {
	srv := NewServer("p", 3, AggregateOnly)
	srv.Quality = quality.New(quality.Config{Interval: -1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	for _, path := range []string{"/quality", "/debug/badreports"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}

	bare := NewServer("p", 3, AggregateOnly)
	bareAddr, err := bare.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Stop()
	resp, err := http.Get("http://" + bareAddr + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /quality without engine: %s, want 404", resp.Status)
	}
}

// TestQualityConcurrentBatchedSubmitters hammers the collector with 8
// concurrent batched submitters while other goroutines inject malformed
// payloads and poll /quality, then asserts the final snapshot adds up
// exactly — no torn or lost counts. Run under -race this also proves the
// hot-path observation points are data-race free.
func TestQualityConcurrentBatchedSubmitters(t *testing.T) {
	const (
		submitters   = 8
		perSubmitter = 400
		malformed    = 60
	)
	srv := NewServer("p", 8, AggregateOnly)
	srv.Quality = quality.New(quality.Config{Interval: -1}) // manual ticks only
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	var wg sync.WaitGroup
	errs := make(chan error, submitters+2)

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := NewClient(base)
			client.BatchSize = 32
			for i := 0; i < perSubmitter; i++ {
				rep := &report.Report{
					RunID:    uint64(w*perSubmitter + i + 1),
					Program:  "p",
					Counters: []uint64{uint64(i), 0, 1, 0, uint64(w), 0, 0, 2},
				}
				if err := client.Submit(rep); err != nil {
					errs <- fmt.Errorf("submitter %d: %w", w, err)
					return
				}
			}
			if err := client.Flush(context.Background()); err != nil {
				errs <- fmt.Errorf("submitter %d flush: %w", w, err)
			}
		}(w)
	}

	// Malformed traffic interleaved with the real submitters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < malformed; i++ {
			resp, err := http.Post(base+"/report", "application/octet-stream",
				strings.NewReader(fmt.Sprintf("garbage %d", i)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				errs <- fmt.Errorf("garbage POST: %s", resp.Status)
				return
			}
		}
	}()

	// Snapshot reader racing the writers: every observed snapshot must be
	// internally coherent (monotone totals, never more than submitted).
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastAcc, lastRej uint64
		for i := 0; i < 50; i++ {
			srv.Quality.Tick()
			snap := srv.Quality.TakeSnapshot()
			if snap.Accepted < lastAcc || snap.RejectedTotal < lastRej {
				errs <- fmt.Errorf("snapshot went backwards: accepted %d->%d rejected %d->%d",
					lastAcc, snap.Accepted, lastRej, snap.RejectedTotal)
				return
			}
			if snap.Accepted > submitters*perSubmitter {
				errs <- fmt.Errorf("accepted %d > %d submitted", snap.Accepted, submitters*perSubmitter)
				return
			}
			lastAcc, lastRej = snap.Accepted, snap.RejectedTotal
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final accounting must be exact.
	resp, err := http.Get(base + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap quality.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if want := uint64(submitters * perSubmitter); snap.Accepted != want {
		t.Errorf("accepted = %d, want %d", snap.Accepted, want)
	}
	if snap.RejectedTotal != malformed || snap.Rejected["decode"] != malformed {
		t.Errorf("rejected = %d (%v), want %d decode", snap.RejectedTotal, snap.Rejected, malformed)
	}
	if snap.Quarantined != 0 {
		t.Errorf("quarantined = %d, want 0", snap.Quarantined)
	}
	if snap.ReportBytes.Count != uint64(submitters*perSubmitter) {
		t.Errorf("report bytes count = %d", snap.ReportBytes.Count)
	}
	// p50/p99 are read from the collector's own histogram.
	if h := srv.m.reportBytes; snap.ReportBytes.P50 != h.Quantile(0.5) || snap.ReportBytes.P99 != h.Quantile(0.99) || snap.ReportBytes.P50 == 0 {
		t.Errorf("report bytes p50/p99 = %v/%v, histogram says %v/%v",
			snap.ReportBytes.P50, snap.ReportBytes.P99, h.Quantile(0.5), h.Quantile(0.99))
	}
	if agg := srv.Aggregate(); agg.Runs != submitters*perSubmitter {
		t.Errorf("aggregate runs = %d", agg.Runs)
	}
}

// TestQualityQuarantineCounting submits a decode-lenient payload and
// checks it is accepted, counted as quarantined, and lands in the
// forensic ring with its run ID.
func TestQualityQuarantineCounting(t *testing.T) {
	srv := NewServer("p", 4, AggregateOnly)
	srv.Quality = quality.New(quality.Config{Interval: -1})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	// A well-formed report with a redundant trailing zero pair: decodes
	// leniently (cacheOK=false) and must be quarantined, not rejected.
	enc := (&report.Report{RunID: 77, Program: "p", Counters: make([]uint64, 4)}).Encode()
	sloppy := append(enc[:len(enc)-2], 1, 0, 0, 0)
	resp, err := http.Post(base+"/report", "application/octet-stream", strings.NewReader(string(sloppy)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("lenient payload: %s, want 202", resp.Status)
	}

	snap := srv.Quality.TakeSnapshot()
	if snap.Accepted != 1 || snap.Quarantined != 1 {
		t.Errorf("accepted %d quarantined %d, want 1/1", snap.Accepted, snap.Quarantined)
	}
	bad, total := srv.Quality.BadReports()
	if total != 1 || len(bad) != 1 || bad[0].Reason != "quarantine" || bad[0].RunID != 77 {
		t.Errorf("forensic ring: total %d, entries %+v", total, bad)
	}
}
