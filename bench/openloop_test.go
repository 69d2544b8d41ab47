package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterOperations: one stall in a fake server
// must raise the tail by the stall, because every operation that came due
// during it is timed from its due time. A generator that timed from the
// moment it got round to sending (coordinated omission) would show one
// slow operation out of 200 and an unmoved p99.
func TestOpenLoopChargesStallToLaterOperations(t *testing.T) {
	const (
		n       = 200
		period  = 2 * time.Millisecond
		stall   = 100 * time.Millisecond
		stallAt = 50
	)
	run := func(stalled bool) genResult {
		var served atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if served.Add(1) == stallAt && stalled {
				time.Sleep(stall)
			}
			w.WriteHeader(http.StatusAccepted)
		}))
		defer srv.Close()
		client := srv.Client()
		return runOpenLoop(n, period, func(int) error {
			resp, err := client.Post(srv.URL, "application/octet-stream", strings.NewReader("x"))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			return resp.Body.Close()
		})
	}
	calm, stalled := run(false), run(true)
	rise := percentile(stalled.lat, 99) - percentile(calm.lat, 99)
	if rise < 0.8*ms(stall) {
		t.Errorf("p99 rose by %.1f ms after a %.0f ms stall; the stall must show in the tail", rise, ms(stall))
	}
	// About stall/period operations came due during the stall and waited.
	delayed := 0
	for _, l := range stalled.lat {
		if l > ms(stall)/4 {
			delayed++
		}
	}
	if want := int(stall / period / 2); delayed < want {
		t.Errorf("%d operations were charged for the stall, want at least %d", delayed, want)
	}
	// The generator itself was not late: it was blocked, not slow.
	if late := percentile(stalled.late, 50); late > lateLimit {
		t.Errorf("generator's own median lateness %.2f ms", late)
	}
}

// TestReaderChargesStallToLaterReads: the reader beside the paced sender
// is an open loop too. One GET stalled for four periods must show as
// several slow reads, each timed from its own due time; a ticker that
// drops the ticks it missed would show one.
func TestReaderChargesStallToLaterReads(t *testing.T) {
	const period = time.Second / ingestReadHz
	stall := 4 * period
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	r := startReader(srv.URL, func() time.Duration { return period })
	time.Sleep(12 * period)
	res := r.stop()
	if res.failed != 0 {
		t.Fatalf("%d reads failed", res.failed)
	}
	slow := 0
	for _, l := range res.lat {
		if l > ms(period) {
			slow++
		}
	}
	if slow < 3 {
		t.Errorf("%d reads were charged for a stall of 4 periods, want at least 3 (latencies %v)", slow, res.lat)
	}
	if len(res.lat) < 10 {
		t.Errorf("%d reads in 12 periods: the reader did not catch up after the stall", len(res.lat))
	}
}

func TestFreshnessWaitsForACoveringSnapshot(t *testing.T) {
	t0 := time.Now()
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	acks := []ack{{at(10), 1}, {at(20), 2}, {at(30), 3}, {at(40), 4}}
	// 5 warm-up reports precede the window; the third snapshot never comes.
	events := []watchEvent{{at(15), 5}, {at(50), 7}, {at(90), 8}}
	got := freshness(acks, events, 5)
	want := []float64{40, 30, 60, inf}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("freshness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
