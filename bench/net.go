package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// senderConns caps the load generator's connections: the machine has two
// cores, so at most two senders, each on its own keep-alive connection.
const senderConns = 2

// newSenderHTTP returns the HTTP client the report senders share.
func newSenderHTTP() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        senderConns,
			MaxIdleConnsPerHost: senderConns,
			MaxConnsPerHost:     senderConns,
		},
	}
}

// ----------------------------------------------------------------------------
// /watch: the developer's live view

// watchEvent is one snapshot event as the /watch stream delivered it.
type watchEvent struct {
	at   time.Time // client-side arrival
	runs int       // reports the snapshot covers
}

// watcher subscribes to a collector's /watch SSE stream and keeps every
// snapshot event with its arrival time: "visible to the developer" in
// this benchmark means "counted in a snapshot the stream has delivered".
type watcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []watchEvent
	other  int // non-snapshot events (anomaly, recovered, converged, ...)
	err    error

	cancel context.CancelFunc
	done   chan struct{}
}

func startWatch(base string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /watch: %s", resp.Status)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.read(resp.Body)
	return w, nil
}

func (w *watcher) read(body io.ReadCloser) {
	defer close(w.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			at := time.Now()
			w.mu.Lock()
			if event == "snapshot" {
				var snap struct {
					Runs int `json:"runs"`
				}
				if err := json.Unmarshal([]byte(line[len("data: "):]), &snap); err == nil {
					w.events = append(w.events, watchEvent{at: at, runs: snap.Runs})
				}
			} else {
				w.other++
			}
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	}
	w.mu.Lock()
	w.err = sc.Err()
	if w.err == nil {
		w.err = io.EOF
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// waitRuns blocks until a delivered snapshot covers at least n reports
// and returns its arrival time, or false once the deadline passes or the
// stream ends.
func (w *watcher) waitRuns(n int, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	defer timer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := 0
	for {
		for ; seen < len(w.events); seen++ {
			if w.events[seen].runs >= n {
				return w.events[seen].at, true
			}
		}
		if w.err != nil || !time.Now().Before(deadline) {
			return time.Time{}, false
		}
		w.cond.Wait()
	}
}

// latestRuns is the report count of the newest delivered snapshot.
func (w *watcher) latestRuns() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.events) == 0 {
		return 0
	}
	return w.events[len(w.events)-1].runs
}

// snapshot returns the snapshot events so far and the count of all
// events, snapshots included.
func (w *watcher) snapshot() ([]watchEvent, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]watchEvent(nil), w.events...), len(w.events) + w.other
}

func (w *watcher) stop() {
	w.cancel()
	<-w.done
}

// ack is one acknowledged submission: when the client saw the 202 and how
// many reports had been acknowledged by then, this one included.
type ack struct {
	at    time.Time
	count int
}

// freshness returns, for each ack, how long after it the first snapshot
// covering it arrived, in milliseconds. acks must be in time order;
// offset is the number of reports already in the collector before the
// first ack (the warm-up). Acks no snapshot ever covered are +Inf.
func freshness(acks []ack, events []watchEvent, offset int) []float64 {
	out := make([]float64, len(acks))
	e := 0
	for i, a := range acks {
		for e < len(events) && events[e].runs < offset+a.count {
			e++
		}
		if e == len(events) {
			out[i] = inf
			continue
		}
		d := events[e].at.Sub(a.at)
		if d < 0 {
			// The snapshot that covers this report was already on the wire
			// when the 202 arrived.
			d = 0
		}
		out[i] = ms(d)
	}
	return out
}

// ----------------------------------------------------------------------------
// /metrics, /stats, /rankings

// scrape fetches a Prometheus text page into series name -> value, keyed
// by the full sample name with its label set.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumSeries adds up every series of one family, whatever its labels.
func sumSeries(m map[string]float64, family string) float64 {
	sum := 0.0
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}

// sumPrefix adds up every series whose full name starts with prefix,
// which may reach into the label set.
func sumPrefix(m map[string]float64, prefix string) float64 {
	sum := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// timedGet performs one GET, drains the body, and returns the latency in
// milliseconds.
func timedGet(client *http.Client, url string) (float64, error) {
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return ms(time.Since(t0)), nil
}

// medianGet is the median latency of n GETs of one URL, for the
// read-path probes. A failed GET fails the probe.
func medianGet(url string, n int) (float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := timedGet(http.DefaultClient, url)
		if err != nil {
			return 0, err
		}
		lat = append(lat, d)
	}
	return median(lat), nil
}
