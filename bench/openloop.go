package main

import (
	"net/http"
	"sync"
	"time"
)

// genResult is what an open-loop run observed, one entry per operation.
type genResult struct {
	// lat is each operation's latency in milliseconds measured from its
	// due time, so a stall is charged to every operation it delayed, not
	// only to the one in flight (no coordinated omission). +Inf = failed.
	lat []float64
	// late is how long after it could have started each operation did
	// start, in milliseconds: the generator's own scheduling error, which
	// excludes time spent blocked behind the previous operation.
	late    []float64
	ackAt   []time.Time
	elapsed time.Duration
}

// runOpenLoop issues n operations on a fixed schedule, one every period,
// from a single goroutine: operation i is due at start + i*period whether
// or not earlier ones were slow. When the sender falls behind it sends
// back to back until it has caught up.
func runOpenLoop(n int, period time.Duration, op func(i int) error) genResult {
	res := genResult{
		lat:   make([]float64, n),
		late:  make([]float64, n),
		ackAt: make([]time.Time, n),
	}
	start := time.Now()
	free := start // when the sender finished its previous operation
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		begin := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		res.late[i] = ms(begin.Sub(ready))
		err := op(i)
		free = time.Now()
		res.ackAt[i] = free
		if err != nil {
			res.lat[i] = inf
		} else {
			res.lat[i] = ms(free.Sub(due))
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// readResult is the reader's view: GET latencies in milliseconds from
// each GET's due time, and how many GETs failed.
type readResult struct {
	lat    []float64
	failed int
}

// reader GETs one URL beside the write load: the developer refreshing the
// ranking while reports stream in. Like the sender it is an open loop: each
// GET is due one gap() after the previous one was due, whether or not that
// one was slow, and is timed from its due time, so a slow GET is charged to
// the ones it delayed as well.
type reader struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	res    readResult
}

func startReader(url string, gap func() time.Duration) *reader {
	r := &reader{stopCh: make(chan struct{})}
	client := &http.Client{Timeout: 30 * time.Second}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer client.CloseIdleConnections()
		for due := time.Now(); ; due = due.Add(gap()) {
			wait := time.NewTimer(time.Until(due))
			select {
			case <-wait.C:
			case <-r.stopCh:
				wait.Stop()
				return
			}
			if _, err := timedGet(client, url); err != nil {
				r.res.failed++
				r.res.lat = append(r.res.lat, inf)
			} else {
				r.res.lat = append(r.res.lat, ms(time.Since(due)))
			}
		}
	}()
	return r
}

func (r *reader) stop() readResult {
	close(r.stopCh)
	r.wg.Wait()
	return r.res
}
