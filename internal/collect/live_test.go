package collect

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/instrument"
	"cbi/internal/monitor"
	"cbi/internal/report"
	"cbi/internal/workloads"
)

// liveReport builds a sparse synthetic report in an n-counter space.
func liveReport(rng *rand.Rand, id uint64, n int) *report.Report {
	counters := make([]uint64, n)
	for c := 0; c < n; c++ {
		if rng.Float64() < 0.15 {
			counters[c] = uint64(rng.Intn(4) + 1)
		}
	}
	return &report.Report{
		RunID:    id,
		Program:  "p",
		Crashed:  rng.Float64() < 0.3,
		Counters: counters,
	}
}

// TestLiveRankingsDuringConcurrentIngest is the satellite concurrency
// test: batched clients hammer a sharded collector while one goroutine
// streams /watch and another repeatedly checks the consistency oracle —
// at any instant, the live scoring state must rank identically to an
// offline score.Score over the exact report subset it covers
// (ScoreStateAndDB captures both under the same shard locks). Run it
// under -race.
func TestLiveRankingsDuringConcurrentIngest(t *testing.T) {
	const (
		n          = 64
		submitters = 8
		perWorker  = 250
	)
	spans := make([]score.SiteSpan, n/2)
	for i := range spans {
		spans[i] = score.SiteSpan{Base: 2 * i, Len: 2}
	}
	srv := NewServer("p", n, StoreAll)
	srv.Shards = 8
	srv.Sites = spans
	srv.Monitor = monitor.New(monitor.Config{TopK: 5, EveryReports: 50})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	// SSE watcher: runs must be nondecreasing across snapshot emissions
	// (each snapshot is a later consistent cut than the one before).
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	var watchWG sync.WaitGroup
	var snapshotEvents atomic.Int64
	watchErr := make(chan error, 1)
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		req, _ := http.NewRequestWithContext(watchCtx, http.MethodGet, base+"/watch", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			watchErr <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		event, lastRuns := "", -1
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "snapshot":
				var snap monitor.Snapshot
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
					watchErr <- err
					return
				}
				if snap.Runs < lastRuns {
					watchErr <- fmt.Errorf("snapshot runs went backwards: %d after %d", snap.Runs, lastRuns)
					return
				}
				lastRuns = snap.Runs
				snapshotEvents.Add(1)
			}
		}
		watchErr <- nil
	}()

	// Consistency oracle: whatever subset of reports the shards hold at
	// this instant, the live rankings over it equal the offline pass.
	oracleCtx, stopOracle := context.WithCancel(context.Background())
	oracleErr := make(chan error, 1)
	var oracleWG sync.WaitGroup
	var oracleChecks int
	oracleWG.Add(1)
	go func() {
		defer oracleWG.Done()
		for oracleCtx.Err() == nil {
			acc, db := srv.ScoreStateAndDB()
			if acc.Runs != db.Len() {
				oracleErr <- fmt.Errorf("inconsistent cut: accum has %d runs, db %d", acc.Runs, db.Len())
				return
			}
			live := score.Rank(acc.Predicates())
			offline := score.Rank(score.Score(db, spans))
			if !reflect.DeepEqual(live, offline) {
				oracleErr <- fmt.Errorf("live rankings diverge from serial-fold oracle at %d runs", acc.Runs)
				return
			}
			oracleChecks++
			time.Sleep(time.Millisecond)
		}
		oracleErr <- nil
	}()

	var ingestWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		ingestWG.Add(1)
		go func(g int) {
			defer ingestWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			client := NewClient(base)
			client.BatchSize = 16
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				rep := liveReport(rng, uint64(g*1_000_000+i), n)
				if err := client.SubmitContext(ctx, rep); err != nil {
					t.Error(err)
					return
				}
			}
			if err := client.Flush(ctx); err != nil {
				t.Error(err)
			}
		}(g)
	}
	ingestWG.Wait()

	stopOracle()
	oracleWG.Wait()
	if err := <-oracleErr; err != nil {
		t.Fatal(err)
	}
	if oracleChecks == 0 {
		t.Fatal("oracle never ran")
	}

	// Final check over the complete DB: the HTTP rankings (fresh) equal
	// offline score.Score+Rank on everything ingested.
	srv.Monitor.Snapshot()
	resp, err := http.Get(base + "/rankings?fresh=1&top=0")
	if err != nil {
		t.Fatal(err)
	}
	var fresh struct {
		Runs int `json:"runs"`
		Top  []struct {
			Counter    int     `json:"counter"`
			Importance float64 `json:"importance"`
		} `json:"top"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fresh.Runs != submitters*perWorker {
		t.Fatalf("final rankings cover %d runs, want %d", fresh.Runs, submitters*perWorker)
	}
	offline := score.Rank(score.Score(srv.DB(), spans))
	if len(offline) != len(fresh.Top) {
		t.Fatalf("final rankings: %d live, %d offline", len(fresh.Top), len(offline))
	}
	for i := range offline {
		if fresh.Top[i].Counter != offline[i].Counter || fresh.Top[i].Importance != offline[i].Importance {
			t.Fatalf("final ranking #%d: live (%d, %v) != offline (%d, %v)",
				i+1, fresh.Top[i].Counter, fresh.Top[i].Importance,
				offline[i].Counter, offline[i].Importance)
		}
	}

	// Give the watcher a moment to see the final snapshot, then stop it.
	deadline := time.Now().Add(5 * time.Second)
	for snapshotEvents.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stopWatch()
	watchWG.Wait()
	if err := <-watchErr; err != nil && !strings.Contains(err.Error(), "context canceled") {
		t.Fatal(err)
	}
	if snapshotEvents.Load() == 0 {
		t.Fatal("watcher saw no snapshot events")
	}
}

// TestStatsIncludesTriageFields: /stats carries the live-triage summary
// when a monitor is attached (and zero values when not) — not converged
// after one snapshot, converged the moment a real sampled ccrypt fleet
// has held its top-10 for three snapshots, with the planted bug on top.
func TestStatsIncludesTriageFields(t *testing.T) {
	type stats struct {
		Runs              int   `json:"runs"`
		RankingsSnapshots int   `json:"rankings_snapshots"`
		LastSnapshotUnix  int64 `json:"last_snapshot_unix"`
		Converged         bool  `json:"converged"`
	}
	getStats := func(addr string) (st stats) {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	srv := NewServer("p", 3, AggregateOnly)
	srv.Monitor = monitor.New(monitor.Config{TopK: 3, EveryReports: 0})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	rep := &report.Report{RunID: 1, Program: "p", Crashed: true, Counters: []uint64{1, 0, 2}}
	if err := srv.Submit(rep); err != nil {
		t.Fatal(err)
	}
	srv.Monitor.Snapshot()

	st := getStats(addr)
	if st.Runs != 1 || st.RankingsSnapshots != 1 || st.LastSnapshotUnix == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Converged {
		t.Fatal("one snapshot must not be converged")
	}

	// The ccrypt fleet, one forced snapshot per 100 reports so the
	// convergence point is a property of the report stream alone.
	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workloads.CcryptFleet(built.Program, workloads.FleetConfig{Runs: 2000, Density: 1.0 / 100, SeedBase: 42})
	if err != nil {
		t.Fatal(err)
	}
	cc := NewServer("ccrypt", built.Program.NumCounters, AggregateOnly)
	cc.Sites = monitor.ManifestOf("ccrypt", built.Program).Spans()
	cc.Monitor = monitor.New(monitor.Config{TopK: 10})
	ccAddr, err := cc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Stop()
	var atRuns, atSeq int
	var ok bool
	for i, rep := range db.Reports {
		if err := cc.Submit(rep); err != nil {
			t.Fatal(err)
		}
		if (i+1)%100 == 0 {
			cc.Monitor.Snapshot()
			if atRuns, atSeq, _, ok = cc.Monitor.Convergence(); ok {
				break
			}
		}
	}
	if !ok {
		t.Fatalf("ccrypt top-10 never held for 3 snapshots in %d reports", len(db.Reports))
	}
	t.Logf("ccrypt rankings converged at %d reports (snapshot %d)", atRuns, atSeq)
	top := cc.Monitor.Current().Top
	if len(top) == 0 {
		t.Fatal("converged on an empty ranking")
	}
	if name := built.Program.PredicateName(top[0].Counter); !strings.Contains(name, "xreadline() return value == 0") {
		t.Fatalf("top predicate is %q, not the planted xreadline bug", name)
	}
	if st := getStats(ccAddr); !st.Converged || st.Runs != atRuns {
		t.Fatalf("ccrypt stats = %+v, want converged at %d runs", st, atRuns)
	}
}

// TestHTTPRequestMetrics: every route — including 405/413 error paths —
// lands in collect_http_requests_total{endpoint,code}.
func TestHTTPRequestMetrics(t *testing.T) {
	srv := NewServer("p", 3, AggregateOnly)
	srv.Monitor = monitor.New(monitor.Config{TopK: 3})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	base := "http://" + addr

	// 405s on POST-only and GET-only endpoints.
	if resp, err := http.Get(base + "/report"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /report = %d", resp.StatusCode)
		}
	}
	if resp, err := http.Post(base+"/stats", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(base+"/rankings", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// 413 on an oversized body.
	big := strings.NewReader(strings.Repeat("x", MaxBodyBytes+1))
	if resp, err := http.Post(base+"/report", "application/octet-stream", big); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized POST /report = %d", resp.StatusCode)
		}
	}
	// A successful submission and a stats read.
	rep := &report.Report{RunID: 1, Program: "p", Counters: []uint64{1, 0, 0}}
	client := NewClient(base)
	if err := client.Submit(rep); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := bufio.NewReader(resp.Body).WriteTo(body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		`collect_http_requests_total{endpoint="/report",code="405"} 1`,
		`collect_http_requests_total{endpoint="/report",code="413"} 1`,
		`collect_http_requests_total{endpoint="/report",code="202"} 1`,
		`collect_http_requests_total{endpoint="/stats",code="405"} 1`,
		`collect_http_requests_total{endpoint="/stats",code="200"} 1`,
		`collect_http_requests_total{endpoint="/rankings",code="405"} 1`,
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
