package collect

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cbi/internal/telemetry"
)

func TestMetricsEndpointExposition(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	client := NewClient(base)
	client.Metrics = telemetry.NewRegistry()
	for i := 0; i < 20; i++ {
		if err := client.Submit(mkReport(uint64(i), i%4 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	// One decode rejection so the labeled counter moves.
	resp, err := http.Post(base+"/report", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Staged ingest acknowledges before folding; the barrier makes
	// collect_fold_seconds_count deterministic below.
	srv.drainStaging()

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Exact lines for the deterministic counters; structural checks for
	// the latency histograms (their bucket spread is timing-dependent).
	for _, line := range []string{
		"# TYPE collect_reports_accepted_total counter",
		"collect_reports_accepted_total 20",
		`collect_reports_rejected_total{reason="decode"} 1`,
		`collect_reports_rejected_total{reason="method"} 0`,
		"# TYPE collect_decode_seconds histogram",
		"collect_decode_seconds_count 21",
		"collect_fold_seconds_count 20",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("missing %q in /metrics:\n%s", line, text)
		}
	}
	if m := regexp.MustCompile(`collect_bytes_ingested_total (\d+)`).FindStringSubmatch(text); m == nil || m[1] == "0" {
		t.Errorf("bytes ingested not counted:\n%s", text)
	}
	if !regexp.MustCompile(`collect_decode_seconds_bucket\{le="\+Inf"\} 21`).MatchString(text) {
		t.Errorf("missing +Inf decode bucket:\n%s", text)
	}
	// Client-side metrics landed in the client's registry.
	var b strings.Builder
	if err := client.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "client_submits_total 20") {
		t.Errorf("client metrics:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "client_submit_seconds_count 20") {
		t.Errorf("client submit latency not recorded:\n%s", b.String())
	}
}

func TestHealthzTransitions(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	get := func(h http.Handler) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if code := get(srv.Handler()); code != http.StatusServiceUnavailable {
		t.Errorf("before Start: %d, want 503", code)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after Start: %s, want 200", resp.Status)
	}
	if err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	if code := get(srv.Handler()); code != http.StatusServiceUnavailable {
		t.Errorf("after Stop: %d, want 503", code)
	}
	if srv.Health().State() != telemetry.HealthShuttingDown {
		t.Errorf("state = %v", srv.Health().State())
	}
}

func TestConcurrentSubmit(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(w*per + i)
				if err := srv.Submit(mkReport(id, id%5 == 0)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	agg := srv.Aggregate()
	if agg.Runs != workers*per {
		t.Errorf("runs = %d, want %d", agg.Runs, workers*per)
	}
	if got := srv.Registry().Counter("collect_reports_accepted_total").Value(); got != workers*per {
		t.Errorf("accepted counter = %d, want %d", got, workers*per)
	}
	if got := srv.Registry().Histogram("collect_fold_seconds", telemetry.DefBuckets).Count(); got != workers*per {
		t.Errorf("fold histogram count = %d, want %d", got, workers*per)
	}
}

func TestClientRetriesTransientErrors(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.RetryBackoff = time.Millisecond
	client.Metrics = telemetry.NewRegistry()
	if err := client.Submit(mkReport(1, false)); err != nil {
		t.Fatalf("submit after retries: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if got := client.Metrics.Counter("client_submit_retries_total").Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := client.Metrics.Counter("client_submit_errors_total").Value(); got != 0 {
		t.Errorf("errors counter = %d, want 0", got)
	}
}

func TestClientDoesNotRetryRejections(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, "bad report", http.StatusBadRequest)
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.RetryBackoff = time.Millisecond
	client.Metrics = telemetry.NewRegistry()
	if err := client.Submit(mkReport(1, false)); err == nil {
		t.Fatal("expected rejection error")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (4xx must not retry)", calls)
	}
	if got := client.Metrics.Counter("client_submit_errors_total").Value(); got != 1 {
		t.Errorf("errors counter = %d, want 1", got)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.RetryBackoff = time.Millisecond
	client.Metrics = telemetry.NewRegistry()
	if err := client.Submit(mkReport(1, false)); err == nil {
		t.Fatal("expected error after exhausting attempts")
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if got := client.Metrics.Counter("client_submit_retries_total").Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
}

// slowBody feeds a request body in two chunks with a pause, so the POST
// is mid-flight when the server begins shutting down.
type slowBody struct {
	chunks [][]byte
	delay  time.Duration
	i      int
}

func (s *slowBody) Read(p []byte) (int, error) {
	if s.i >= len(s.chunks) {
		return 0, io.EOF
	}
	if s.i > 0 {
		time.Sleep(s.delay)
	}
	n := copy(p, s.chunks[s.i])
	s.i++
	return n, nil
}

func TestStopDrainsInFlightSubmissions(t *testing.T) {
	srv := NewServer("p", 3, StoreAll)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	enc := mkReport(9, true).Encode()
	body := &slowBody{chunks: [][]byte{enc[:1], enc[1:]}, delay: 300 * time.Millisecond}

	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest("POST", "http://"+addr+"/report", body)
		req.ContentLength = int64(len(enc))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{0, err}
			return
		}
		resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()

	time.Sleep(100 * time.Millisecond) // let the POST start streaming
	if err := srv.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight POST dropped during shutdown: %v", r.err)
	}
	if r.status != http.StatusAccepted {
		t.Errorf("in-flight POST status = %d, want 202", r.status)
	}
	if srv.DB().Len() != 1 {
		t.Errorf("report not folded: db len %d", srv.DB().Len())
	}
}
