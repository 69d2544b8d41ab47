// Quickstart: the whole pipeline on a ten-line program.
//
// We write a tiny MiniC program with a latent bug, instrument it with the
// returns scheme, apply the sampling transformation, simulate a user
// community, ship the reports to a collection server over HTTP, and let
// predicate elimination point at the bug.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -workers 8 -batch 64
//	go run ./examples/quickstart -trace-out quickstart-trace.json
//
// -workers runs the simulated user community concurrently (the analysis
// is unchanged: per-user seeds are fixed and the collector's snapshot is
// ordered by run ID); -batch ships reports in batched POSTs to /reports
// instead of one /report POST per user.
//
// With -trace-out, every user run opens a distributed trace that the
// collection server continues across the HTTP hop (fleet.run →
// client.submit → server.ingest → server.decode/server.fold), and all
// spans land in one Chrome trace-event file — load it in Perfetto or
// chrome://tracing to follow a single report from fleet run to fold.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/score"
	"cbi/internal/cfg"
	"cbi/internal/collect"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/minic"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/telemetry/trace"
	"cbi/internal/workloads"
)

// The program under test: parse_header returns a negative code for bad
// input, and process() forgets to check it before using the result as an
// array index.
const src = `
int parse_header(int tag) {
	if (tag % 211 == 3) { return -1; } // corrupt header (rare)
	return tag % 8;
}

int process(int* table, int tag) {
	int idx = parse_header(tag);
	// BUG: negative idx is not rejected.
	return table[idx];
}

int main() {
	int* table = alloc(8);
	for (int i = 0; i < 8; i++) { table[i] = i * 10; }
	int total = 0;
	for (int i = 0; i < 40; i++) {
		total += process(table, rand(1000));
	}
	return 0;
}
`

func main() {
	traceOut := flag.String("trace-out", "", "write one Chrome trace-event JSON file covering every run's fleet→collector trace")
	workers := flag.Int("workers", 0, "concurrent simulated users (0 = NumCPU)")
	batch := flag.Int("batch", 1, "reports buffered per POST to /reports (1 = one /report POST per user)")
	flag.Parse()
	var tracer *trace.Collector
	if *traceOut != "" {
		tracer = trace.NewCollector()
	}

	// 1. Parse and instrument with the returns scheme, then apply the
	//    sampling transformation (fast path + slow path + thresholds).
	file, err := minic.Parse("quickstart.mc", src)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := cfg.Build(file, nil, &instrument.Schemes{Set: instrument.SchemeSet{Returns: true}})
	if err != nil {
		log.Fatal(err)
	}
	sampled := instrument.Sample(prog, instrument.DefaultOptions())
	fmt.Printf("instrumented %d sites (%d counters)\n", len(prog.Sites), prog.NumCounters)

	// 2. Start a central collection server. Client and server share one
	//    span collector here (they are one process), so each trace shows
	//    both sides of the HTTP hop in a single timeline.
	srv := collect.NewServer("quickstart", prog.NumCounters, collect.StoreAll)
	srv.Tracer = tracer
	// Attach the live triage monitor: while the community below is still
	// reporting, the collector keeps incremental top-K rankings and serves
	// them at /rankings, /watch (SSE), and /dashboard.
	spans := make([]score.SiteSpan, len(prog.Sites))
	for i, site := range prog.Sites {
		spans[i] = score.SiteSpan{Base: site.CounterBase, Len: site.NumCounters}
	}
	srv.Sites = spans
	srv.Monitor = monitor.New(monitor.Config{
		TopK:          5,
		EveryReports:  250,
		PredicateName: prog.PredicateName,
	})
	// Attach the ingest-quality engine: every accept/reject below folds
	// into its counters and density check, and /quality +
	// /debug/badreports serve the population-health view. Interval 0
	// disables the background ticker — this script drives anomaly
	// evaluation explicitly with Tick() so the walkthrough is
	// deterministic.
	srv.Quality = quality.New(quality.Config{
		Density: 1.0 / 10, // the community's advertised sampling density
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()
	client := collect.NewClient("http://" + addr)
	client.BatchSize = *batch

	// 3. Simulate the user community: each user runs with 1/10 sampling
	//    and phones home. Users are independent, so they run across
	//    -workers goroutines; seeds are per-user and the collector's
	//    snapshot is ordered by run ID, so the analysis below is the same
	//    at any worker count.
	const users = 2000
	nw := *workers
	if nw <= 0 {
		nw = runtime.NumCPU()
	}
	var crashes, nextUser atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := nextUser.Add(1) - 1
				if u >= users {
					return
				}
				runSpan := tracer.StartSpan("fleet.run")
				runSpan.SetAttr("run_id", fmt.Sprint(u))
				res := interp.Run(sampled, interp.Config{
					Seed:          u,
					Density:       1.0 / 10,
					CountdownSeed: u * 31,
				})
				if res.Outcome == interp.OutcomeCrash {
					crashes.Add(1)
				}
				ctx := trace.NewContext(context.Background(), runSpan)
				err := client.SubmitContext(ctx, workloads.ReportOf("quickstart", uint64(u), res))
				runSpan.End()
				if err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := client.Flush(context.Background()); err != nil {
		log.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	if int64(st.Crashes) != crashes.Load() {
		log.Fatalf("collector saw %d crashes, community observed %d", st.Crashes, crashes.Load())
	}
	fmt.Printf("community: %d runs collected, %d crashes\n", st.Runs, st.Crashes)

	// 3b. The live triage view: fetch the collector's current rankings
	//     over HTTP (?fresh=1 recomputes from the live statistics) and
	//     check they match an offline score pass over the same reports —
	//     the monitor is incremental, not approximate.
	var live struct {
		Top []struct {
			Counter    int     `json:"counter"`
			Name       string  `json:"name"`
			Importance float64 `json:"importance"`
		} `json:"top"`
	}
	resp, err := client.HTTP.Get("http://" + addr + "/rankings?fresh=1&top=5")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	offline := score.Top(score.Score(srv.DB(), spans), 5)
	if len(offline) != len(live.Top) {
		log.Fatalf("live rankings returned %d predicates, offline scoring %d", len(live.Top), len(offline))
	}
	fmt.Printf("\nlive triage rankings (GET /rankings — browse http://%s/dashboard while a fleet runs):\n", addr)
	for i, e := range live.Top {
		if offline[i].Counter != e.Counter || offline[i].Importance != e.Importance {
			log.Fatalf("live ranking #%d = counter %d (%.6f), offline = counter %d (%.6f)",
				i+1, e.Counter, e.Importance, offline[i].Counter, offline[i].Importance)
		}
		fmt.Printf("%2d. importance=%.3f  %s\n", i+1, e.Importance, e.Name)
	}
	fmt.Println("    (bit-identical to offline score.Score + Rank over the same reports)")

	// 3c. Population health: the healthy community is in; close its rate
	//     window, then play a misbehaving client — a burst of garbage
	//     POSTs plus one sloppily encoded (but decodable) report — and
	//     check the quality engine catches all of it.
	srv.Quality.Tick() // healthy baseline window
	for i := 0; i < 50; i++ {
		resp, err := client.HTTP.Post("http://"+addr+"/report", "application/octet-stream",
			bytes.NewReader([]byte(fmt.Sprintf("not a report %d", i))))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			log.Fatalf("garbage POST got %d, want 400", resp.StatusCode)
		}
	}
	// A lenient encoding: an explicit zero counter pair, which Encode
	// never emits. The collector folds it but quarantines the sender.
	sloppy := (&report.Report{RunID: 999_999, Program: "quickstart", Counters: make([]uint64, prog.NumCounters)}).Encode()
	sloppy = append(sloppy[:len(sloppy)-2], 1 /*nz*/, 0 /*delta*/, 0 /*zero value*/, 0 /*traceLen*/)
	resp, err = client.HTTP.Post("http://"+addr+"/report", "application/octet-stream", bytes.NewReader(sloppy))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		log.Fatalf("lenient report got %d, want 202", resp.StatusCode)
	}
	srv.Quality.Tick() // the burst window: evaluate anomaly rules

	var q quality.Snapshot
	resp, err = client.HTTP.Get("http://" + addr + "/quality")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if q.Rejected["decode"] != 50 {
		log.Fatalf("quality saw %d decode rejections, want 50", q.Rejected["decode"])
	}
	if q.Quarantined != 1 {
		log.Fatalf("quality saw %d quarantined reports, want 1", q.Quarantined)
	}
	surge := false
	for _, a := range q.Anomalies {
		if a.Kind == "reject-surge" {
			surge = true
		}
	}
	if !surge {
		log.Fatalf("no reject-surge anomaly after the garbage burst (anomalies: %+v)", q.Anomalies)
	}
	if q.Sampling.Verdict != "consistent" {
		log.Fatalf("sampling check says %q (tv %.3f) for the healthy cohort, want consistent",
			q.Sampling.Verdict, q.Sampling.TVDistance)
	}
	var bad struct {
		Recorded uint64 `json:"recorded_total"`
	}
	resp, err = client.HTTP.Get("http://" + addr + "/debug/badreports")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if bad.Recorded == 0 {
		log.Fatal("forensic ring is empty after the garbage burst")
	}
	fmt.Printf("\npopulation health (GET /quality): %d rejected, %d quarantined, reject-surge flagged,\n"+
		"    sampling %s (tv=%.3f vs Poisson at density 1/10), %d payloads in /debug/badreports\n",
		q.RejectedTotal, q.Quarantined, q.Sampling.Verdict, q.Sampling.TVDistance, bad.Recorded)

	// 3d. Back-pressure under overload: a deliberately tiny second
	//     collector — one shard, a 128-slot staging ring, shed-immediately
	//     — is driven past its fold capacity by eight concurrent
	//     submitters posting dense batches. Overload must degrade to fast
	//     503 + Retry-After rejections (never blocking, never corrupting),
	//     the quality engine must flag the shed storm and recover, and
	//     retrying the shed batches once pressure drops must land exactly
	//     the serial-fold state: nothing lost, nothing duplicated.
	//     (GOMAXPROCS is raised so the submitters and the background
	//     folder run on preemptively scheduled threads; on one core Go's
	//     cooperative scheduler would always let the folder drain first
	//     and the ring would never fill.)
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		ovCounters   = 1024
		ovBatch      = 16
		ovBatches    = 320 // 8 submitters × 40 batches = 5120 reports
		ovSubmitters = 8
	)
	ovReps := make([]*report.Report, ovBatches*ovBatch)
	for i := range ovReps {
		c := make([]uint64, ovCounters)
		for j := range c {
			c[j] = uint64((i+j)%50 + 1) // dense: folding dominates, the single folder is the bottleneck
		}
		ovReps[i] = &report.Report{RunID: uint64(i + 1), Program: "overload", Crashed: i%10 < 3, Counters: c}
	}
	ovBodies := make([][]byte, ovBatches)
	for i := range ovBodies {
		ovBodies[i] = report.EncodeBatch(ovReps[i*ovBatch : (i+1)*ovBatch])
	}
	ovSrv := collect.NewServer("overload", ovCounters, collect.AggregateOnly)
	ovSrv.Shards = 1
	ovSrv.StageCapacity = 128
	ovSrv.StageWait = -1 // pure load shedding: a full ring sheds instantly
	ovSrv.Quality = quality.New(quality.Config{})
	ovAddr, err := ovSrv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ovSrv.Stop()
	ovSrv.Quality.Tick() // baseline window: arms the rate-spike rule
	post := func(body []byte) (code int, retryAfter string) {
		resp, err := client.HTTP.Post("http://"+ovAddr+"/reports", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	var ovShed atomic.Int64
	shed := make([][]int, ovSubmitters)
	var ovWG sync.WaitGroup
	for w := 0; w < ovSubmitters; w++ {
		ovWG.Add(1)
		go func(w int) {
			defer ovWG.Done()
			for i := w; i < ovBatches; i += ovSubmitters {
				switch code, retryAfter := post(ovBodies[i]); code {
				case 202:
				case 503:
					if retryAfter == "" {
						log.Fatalf("shed response for batch %d carried no Retry-After header", i)
					}
					ovShed.Add(ovBatch)
					shed[w] = append(shed[w], i)
				default:
					log.Fatalf("overload POST got %d, want 202 or 503", code)
				}
			}
		}(w)
	}
	ovWG.Wait()
	if ovShed.Load() == 0 {
		log.Fatal("overload burst shed nothing — back-pressure never engaged")
	}
	shedAnomaly := func() bool {
		for _, a := range ovSrv.Quality.ActiveAnomalies() {
			if a.Target == "reject:shed" || a.Kind == "reject-surge" {
				return true
			}
		}
		return false
	}
	fired := false
	for i := 0; i < 2 && !fired; i++ { // two chances: a short burst can straddle windows
		ovSrv.Quality.Tick()
		fired = shedAnomaly()
	}
	if !fired {
		log.Fatal("no shed anomaly after the overload burst")
	}
	// Pressure is off: one sequential retrier lands every shed batch.
	for _, mine := range shed {
		for _, i := range mine {
			landed := false
			for attempt := 0; attempt < 10000 && !landed; attempt++ {
				if code, _ := post(ovBodies[i]); code == 202 {
					landed = true
				} else {
					time.Sleep(200 * time.Microsecond)
				}
			}
			if !landed {
				log.Fatalf("shed batch %d never landed on retry", i)
			}
		}
	}
	recovered := false
	for i := 0; i < 10 && !recovered; i++ { // quiet windows retire the anomaly
		time.Sleep(2 * time.Millisecond)
		ovSrv.Quality.Tick()
		recovered = !shedAnomaly()
	}
	if !recovered {
		log.Fatal("shed anomaly never recovered after quiet windows")
	}
	// Shed/retry introduced no holes and no duplicates: the collector's
	// final state is the serial fold of all reports.
	ovOracle := report.NewAggregate("overload", ovCounters)
	for _, r := range ovReps {
		if err := ovOracle.Fold(r); err != nil {
			log.Fatal(err)
		}
	}
	if got := ovSrv.Aggregate(); !reflect.DeepEqual(got, ovOracle) {
		log.Fatalf("after retries the collector aggregate diverges from the serial fold (%d runs vs %d)",
			got.Runs, ovOracle.Runs)
	}
	fmt.Printf("\noverload smoke: %d/%d reports shed with 503 + Retry-After, shed anomaly fired and recovered,\n"+
		"    every shed batch retried to acceptance — final aggregate identical to a serial fold\n",
		ovShed.Load(), ovBatches*ovBatch)

	// 3e. Federated collection: the same community could have reported
	//     to a tree of collectors instead of one. Edge collectors ingest
	//     raw reports near the clients and push compact delta merges —
	//     epoch-cursored "CBA1" envelopes of aggregate + scoring +
	//     quality sufficient statistics — to a root's /merge endpoint
	//     over real HTTP. Report bodies never leave the edges; the
	//     root's merged state is nevertheless bit-identical to the
	//     single collector above folding every report itself.
	fedRoot := collect.NewServer("quickstart", prog.NumCounters, collect.AggregateOnly)
	fedRoot.AcceptMerges = true
	fedRoot.Sites = spans
	fedAddr, err := fedRoot.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer fedRoot.Stop()
	fedEdges := make([]*collect.Server, 2)
	for i := range fedEdges {
		e := collect.NewServer("quickstart", prog.NumCounters, collect.AggregateOnly)
		e.Sites = spans
		e.Federation = &collect.Federation{
			Parent:   "http://" + fedAddr,
			EdgeID:   fmt.Sprintf("edge-%d", i),
			Interval: time.Hour, // this script cuts epochs explicitly below
		}
		fedEdges[i] = e
		defer e.Stop()
	}
	for _, r := range srv.DB().Reports {
		if err := fedEdges[r.RunID%2].Submit(r); err != nil {
			log.Fatal(err)
		}
	}
	for _, e := range fedEdges {
		if err := e.FederateNow(); err != nil {
			log.Fatal(err)
		}
	}
	if got, want := fedRoot.Aggregate(), srv.Aggregate(); !reflect.DeepEqual(got, want) {
		log.Fatalf("federated root aggregate diverges from the single collector (%d runs vs %d)",
			got.Runs, want.Runs)
	}
	fmt.Printf("\nfederated tree: %d reports ingested by 2 edges reached the root as %d delta pushes —\n"+
		"    root state bit-identical to the single collector (curl http://%s/stats)\n",
		srv.DB().Len(), fedRoot.Registry().Counter("collect_merge_requests_total").Value(), fedAddr)

	// 4. Analyze: which predicates are true only in failed runs?
	db := srv.DB()
	agg := report.NewAggregate("quickstart", prog.NumCounters)
	if err := agg.FromDB(db); err != nil {
		log.Fatal(err)
	}
	combined := elim.Intersect(elim.UniversalFalsehood(agg), elim.SuccessfulCounterexample(agg))
	fmt.Println("\npredicates observed true only in crashing runs:")
	for _, c := range elim.Indices(combined) {
		fmt.Println("  ", prog.PredicateName(c))
	}
	fmt.Println("\n(the parse_header() < 0 predicate is the bug: a negative")
	fmt.Println(" header code flows into table[idx])")

	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %d trace spans to %s (open in Perfetto or chrome://tracing)\n",
			tracer.Len(), *traceOut)
	}
}
