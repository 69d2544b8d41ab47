package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/telemetry"
)

const (
	// snapshotEvery is the monitor's wall-clock snapshot cadence on the
	// server the developer watches.
	snapshotEvery = 100 * time.Millisecond
	// visibleTimeout bounds the wait for acknowledged reports to show up
	// in a /watch snapshot; running into it means reports were lost.
	visibleTimeout = 30 * time.Second
	// sloLimit is the fixed acknowledgement-latency limit behind
	// collect.slo_miss_ratio; a failed submission misses it by definition.
	sloLimit = 25 * time.Millisecond
	// backlogHz is how often acked-minus-visible is sampled.
	backlogHz = 20
)

// scrapeDelta is two /metrics pages around a window; every counter the
// servers keep is cumulative since start, warm-up included, so layer
// counts are differences.
type scrapeDelta struct {
	before, after map[string]float64
}

func (d scrapeDelta) counter(family string) float64 {
	return sumSeries(d.after, family) - sumSeries(d.before, family)
}

// histMean is the mean of the observations a histogram took inside the
// window.
func (d scrapeDelta) histMean(family string) float64 {
	n := d.counter(family + "_count")
	if n <= 0 {
		return 0
	}
	return d.counter(family+"_sum") / n
}

// ingestLayers records what the ingest server's own counters say about
// the window: staging pressure, fold batching, request counts, quality
// verdicts.
func ingestLayers(m map[string]float64, d scrapeDelta, endpoint string) {
	requests := `collect_http_requests_total{endpoint="` + endpoint + `",`
	m["collect.requests"] = sumPrefix(d.after, requests) - sumPrefix(d.before, requests)
	m["collect.stage_waits"] = d.counter("collect_stage_waits_total")
	m["collect.shed"] = d.counter("collect_reports_shed_total")
	m["collect.fold_batch_mean"] = d.histMean("collect_stage_fold_batch")
	m["quality.anomalies"] = d.counter("quality_anomalies_total")
	m["quality.quarantined"] = d.counter("collect_reports_quarantined_total")
}

// monitorLayers records the snapshot worker's cost and output on the
// server that serves /watch.
func monitorLayers(m map[string]float64, d scrapeDelta, sseEvents int) {
	m["monitor.snapshot_ms"] = d.histMean("monitor_snapshot_seconds") * 1e3
	m["monitor.snapshots"] = d.counter("monitor_snapshots_total")
	m["monitor.sse_events"] = float64(sseEvents)
	m["monitor.sse_dropped"] = d.counter("monitor_events_dropped_total")
}

// clientLayers reads the submitting client's own registry.
func clientLayers(m map[string]float64, reg *telemetry.Registry, before clientCounts) {
	now := readClientCounts(reg)
	m["collect.retries"] = now.retries - before.retries
	m["collect.attempts"] = (now.ok - before.ok) + (now.errors - before.errors) + (now.retries - before.retries)
}

type clientCounts struct{ ok, errors, retries float64 }

func readClientCounts(reg *telemetry.Registry) clientCounts {
	return clientCounts{
		ok:      float64(reg.Counter("client_submits_total").Value() + reg.Counter("client_batch_flushes_total").Value()),
		errors:  float64(reg.Counter("client_submit_errors_total").Value() + reg.Counter("client_batch_errors_total").Value()),
		retries: float64(reg.Counter("client_submit_retries_total").Value()),
	}
}

// serverProbes times the read-side entry points of a live, idle server.
func serverProbes(m map[string]float64, aggregate func(), ingestURL, watchURL string) error {
	var drain []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		aggregate()
		drain = append(drain, ms(time.Since(t0)))
	}
	m["collect.drain_ms"] = median(drain)
	var err error
	if m["collect.stats_fresh_ms"], err = medianGet(ingestURL+"/stats?fresh=1", 20); err != nil {
		return err
	}
	if m["monitor.rankings_cached_ms"], err = medianGet(watchURL+"/rankings?top=10", 20); err != nil {
		return err
	}
	if m["telemetry.scrape_ms"], err = medianGet(ingestURL+"/metrics", 10); err != nil {
		return err
	}
	page, err := scrape(ingestURL)
	if err != nil {
		return err
	}
	m["telemetry.series"] = float64(len(page))
	return nil
}

// backlogSampler tracks the largest gap between reports acknowledged and
// reports visible in a delivered snapshot — a growing gap means the
// offered rate is not sustainable.
type backlogSampler struct {
	acked  atomic.Int64
	max    int64
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// startBacklog samples visible() at backlogHz until stop.
func startBacklog(visible func() int) *backlogSampler {
	b := &backlogSampler{stopCh: make(chan struct{})}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(time.Second / backlogHz)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if gap := b.acked.Load() - int64(visible()); gap > b.max {
					b.max = gap
				}
			case <-b.stopCh:
				return
			}
		}
	}()
	return b
}

// stop ends sampling and returns the largest backlog seen.
func (b *backlogSampler) stop() float64 {
	close(b.stopCh)
	b.wg.Wait()
	return float64(b.max)
}

// countingTransport counts the requests and body bytes an HTTP client
// sends; it wraps the edge's federation client to see merge pushes from
// outside.
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	return t.base.RoundTrip(r)
}

// sloMissRatio is the share of acknowledgement latencies (milliseconds,
// +Inf for failures) over sloLimit.
func sloMissRatio(lat []float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	miss := 0
	for _, l := range lat {
		if l > ms(sloLimit) {
			miss++
		}
	}
	return float64(miss) / float64(len(lat))
}
