package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/collect"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
	wl "cbi/internal/workloads"
)

// Sizes of fleet_ccrypt. The run count is a constant per second of
// window, sized on the 2-core reference machine (about 8 k reports/s end
// to end) so that the window lasts roughly --seconds there; a fixed count
// rather than a deadline keeps the work, the exact counts and the memory
// footprint the same on both sides of a comparison.
const (
	fleetRunsPerSecond = 8000
	// fleetChunk is how many runs one CcryptFleet call makes. The fleet
	// returns every report of a call in its DB, so one call for the whole
	// window would hold 120 000 reports (about 100 MB live) until the end
	// and peak_rss_mb would measure that, not the VM and the collectors.
	// Run seeds depend on SeedBase + index alone, so the chunks produce
	// the reports one call would.
	fleetChunk      = fleetRunsPerSecond
	fleetWarmupRuns = 1000
	// fleetSample is how many of the window's first reports are kept for
	// the probes.
	fleetSample        = 256
	fleetWorkers       = 2
	fleetDensity       = 1.0 / 100
	fleetFederateEvery = 200 * time.Millisecond
	// fleetPlanted is the predicate the ccrypt case study plants: the
	// unchecked EOF from xreadline (§3.2).
	fleetPlanted = "xreadline() return value == 0"
	// fleetPlantedMinRuns: below this many reports at density 1/100 the
	// importance ranking is too thin to be held to the planted bug.
	fleetPlantedMinRuns = 10000
)

// fleetCcrypt is the whole journey of §2.5: sampled ccrypt runs on the
// fused VM, one report per POST to an edge collector, delta merges to a
// root, and the root's live ranking on /watch.
type fleetCcrypt struct {
	built    *wl.Built
	seedBase int64
	tracer   *trace.Collector

	root, edge       *collect.Server
	rootURL, edgeURL string
	fedWire          *countingTransport
	client           *collect.Client
	clientReg        *telemetry.Registry
	watch            *watcher

	// The oracle: the serial fold of exactly the reports the edge
	// acknowledged, warm-up and probes included, folded as they are
	// acknowledged so that no report outlives its chunk.
	oracleAgg *report.Aggregate
	oracleAcc *score.Accum
	oracleErr error
	acked     int
	sample    []*report.Report // the window's first reports, for the probes
}

// foldAcked adds one acknowledged report to the oracle.
func (f *fleetCcrypt) foldAcked(rep *report.Report) {
	err := f.oracleAgg.Fold(rep)
	if err == nil {
		err = f.oracleAcc.Fold(rep)
	}
	if err != nil && f.oracleErr == nil {
		f.oracleErr = err
	}
	f.acked++
}

func setupFleetCcrypt(c *runCtx, tr *trace.Collector) (instance, error) {
	built, err := wl.BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		return nil, err
	}
	n := built.Program.NumCounters
	f := &fleetCcrypt{built: built, seedBase: c.seed * 1_000_003, tracer: tr,
		oracleAgg: report.NewAggregate("ccrypt", n), oracleAcc: score.NewAccum(n, nil)}

	f.root = collect.NewServer("ccrypt", n, collect.AggregateOnly)
	f.root.AcceptMerges = true
	f.root.Monitor = monitor.New(monitor.Config{
		TopK: 10, Interval: snapshotEvery, PredicateName: built.Program.PredicateName,
	})
	addr, err := f.root.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.rootURL = "http://" + addr

	// The edge pushes every 200 ms and the root snapshots every 100 ms, both
	// on tickers that run from their server's start. Started back to back,
	// every push lands within a millisecond of a snapshot tick, and which
	// side of it decides whether every report waits 100 ms longer: fresh_*
	// read 200/298 ms in most runs and 100/200 ms in some. Half a snapshot
	// interval between the two starts puts every push mid-interval.
	time.Sleep(snapshotEvery / 2)
	f.fedWire = &countingTransport{base: http.DefaultTransport}
	f.edge = collect.NewServer("ccrypt", n, collect.AggregateOnly)
	f.edge.Quality = quality.New(quality.Config{})
	f.edge.Tracer = tr
	f.edge.Federation = &collect.Federation{
		Parent:   f.rootURL,
		EdgeID:   "bench-edge",
		Interval: fleetFederateEvery,
		HTTP:     &http.Client{Timeout: 30 * time.Second, Transport: f.fedWire},
	}
	if addr, err = f.edge.Start("127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	f.edgeURL = "http://" + addr

	if f.watch, err = startWatch(f.rootURL); err != nil {
		f.close()
		return nil, err
	}
	f.clientReg = telemetry.NewRegistry()
	f.client = collect.NewClient(f.edgeURL)
	f.client.HTTP = newSenderHTTP()
	f.client.Metrics = f.clientReg

	// Warm-up: connections, the VM's pools, the servers' lazy state. Its
	// reports stay in the collectors, so the oracle keeps them too.
	warm := c.fixed(fleetWarmupRuns, 50)
	db, err := wl.CcryptFleet(built.Program, wl.FleetConfig{
		Runs: warm, Density: fleetDensity, SeedBase: f.seedBase - int64(warm),
		Workers: fleetWorkers, Submit: f.client.SubmitContext,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, rep := range db.Reports {
		f.foldAcked(rep)
	}
	return f, nil
}

func (f *fleetCcrypt) measure(c *runCtx, size float64) (*pass, error) {
	// The window opens once the warm-up is visible at the root. The wait is
	// for a federation tick and a snapshot tick, not for work, so it is in
	// neither setup_s nor the window.
	if _, ok := f.watch.waitRuns(f.acked, visibleTimeout); !ok {
		return nil, fmt.Errorf("warm-up: %d reports never became visible at the root", f.acked)
	}
	n := c.scaled(fleetRunsPerSecond*size, 200)
	c.info.Sizes["fleet_ccrypt.runs"] = float64(n)
	offset := f.acked
	spanStart := f.tracer.Len()
	client0 := readClientCounts(f.clientReg)
	fed0 := f.fedWire.bytes.Load()
	_, events0 := f.watch.snapshot()
	edge0, err := scrape(f.edgeURL)
	if err != nil {
		return nil, err
	}
	root0, err := scrape(f.rootURL)
	if err != nil {
		return nil, err
	}

	ackAt := make([]time.Time, n)
	lat := make([]float64, n)
	backlog := startBacklog(func() int { return f.watch.latestRuns() - offset })
	// base is the window index of the current chunk's first run; it changes
	// only between fleet calls. Each run writes only its own slot (run IDs
	// are unique within a chunk), so the two workers need no lock.
	base := 0
	submit := func(ctx context.Context, rep *report.Report) error {
		i := base + int(rep.RunID)
		s0 := time.Now()
		err := f.client.SubmitContext(ctx, rep)
		ackAt[i] = time.Now()
		if err != nil {
			lat[i] = inf
			return nil // keep the fleet going; the report counts as failed
		}
		lat[i] = ms(ackAt[i].Sub(s0))
		backlog.acked.Add(1)
		return nil
	}

	p0 := sampleProc()
	t0 := time.Now()
	f.sample = nil
	traps := 0
	acks := make([]ack, 0, n)
	chunk := c.fixed(fleetChunk, 100)
	for ; base < n; base += chunk {
		db, err := wl.CcryptFleet(f.built.Program, wl.FleetConfig{
			Runs: min(chunk, n-base), Density: fleetDensity, SeedBase: f.seedBase + int64(base), Workers: fleetWorkers,
			Engine: interp.EngineFused, Submit: submit, Tracer: f.tracer,
		})
		if err != nil {
			backlog.stop()
			return nil, err
		}
		// On the clock, both workers idle: about half a microsecond per
		// report against a cycle of some 200.
		for i, rep := range db.Reports {
			if lat[base+i] != inf {
				f.foldAcked(rep)
				acks = append(acks, ack{at: ackAt[base+i]})
			}
		}
		traps += len(db.Failures())
		if base == 0 {
			f.sample = db.Reports[:min(fleetSample, len(db.Reports))]
		}
	}
	failed := n - len(acks)
	sort.Slice(acks, func(i, j int) bool { return acks[i].at.Before(acks[j].at) })
	for i := range acks {
		acks[i].count = i + 1
	}
	visibleAt, visible := f.watch.waitRuns(f.acked, visibleTimeout)
	p1 := sampleProc()
	backlogMax := backlog.stop()
	c.ops(n, failed)
	if !visible {
		c.check("fleet_ccrypt.visible", false,
			fmt.Sprintf("%d acked reports, root snapshot shows %d after %s", f.acked, f.watch.latestRuns(), visibleTimeout))
		visibleAt = time.Now()
	}
	if len(acks) == 0 {
		return nil, fmt.Errorf("no report was acknowledged")
	}
	// The identity of the generated inputs: the order-free statistics of
	// every report acknowledged so far, warm-up and window.
	sum := sha256.Sum256(f.oracleAgg.EncodeStats())
	c.info.Pools["fleet_ccrypt.reports"] = hex.EncodeToString(sum[:])

	p := newPass()
	p.wall = visibleAt.Sub(t0)
	p.ops = len(acks)
	p.work = float64(len(acks)) / p.wall.Seconds()
	p.opMS = median(fleetCycles(ackAt, acks, t0))
	p.proc = p0.until(p1)

	workerWall := p.wall.Seconds() * fleetWorkers
	events, eventCount := f.watch.snapshot()
	fresh := freshness(acks, events, offset)
	m := p.layer
	m["ack_p50_ms"] = percentile(lat, 50)
	m["ack_p99_ms"] = percentile(lat, 99)
	m["fresh_p50_ms"] = percentile(fresh, 50)
	m["fresh_p99_ms"] = percentile(fresh, 99)
	m["workloads.runs"] = float64(n)
	submitWait := 0.0
	for _, l := range lat {
		if l != inf {
			submitWait += l / 1e3
		}
	}
	m["workloads.submit_wait_share"] = submitWait / workerWall
	m["interp.traps"] = float64(traps)
	m["collect.backlog_max"] = backlogMax
	m["collect.slo_miss_ratio"] = sloMissRatio(lat)
	m["collect.merge_bytes"] = float64(f.fedWire.bytes.Load() - fed0)
	clientLayers(m, f.clientReg, client0)
	edge1, err := scrape(f.edgeURL)
	if err != nil {
		return nil, err
	}
	root1, err := scrape(f.rootURL)
	if err != nil {
		return nil, err
	}
	edgeD, rootD := scrapeDelta{edge0, edge1}, scrapeDelta{root0, root1}
	ingestLayers(m, edgeD, "/report")
	monitorLayers(m, rootD, eventCount-events0)
	m["collect.merge_pushes"] = edgeD.counter("collect_merge_pushes_total")
	m["collect.merge_dups"] = rootD.counter("collect_merge_duplicates_total")

	if f.tracer != nil {
		f.spanLayers(c, p, f.tracer.Records()[spanStart:], len(acks), visibleAt.Sub(lastAck(acks)))
	}
	return p, nil
}

func lastAck(acks []ack) time.Time { return acks[len(acks)-1].at }

// fleetCycles returns, per run, what one deployed run costs its user in
// milliseconds: VM run, report construction and the submit round trip.
// The fleet is a closed loop of fleetWorkers workers handing out run
// indices in completion order, so run i starts when the (i-workers+1)-th
// acknowledgement arrives (the first runs start at t0) and ends at its
// own. Runs whose submit failed still occupy their slot; with none
// failing, acks holds every run's acknowledgement in time order.
func fleetCycles(ackAt []time.Time, acks []ack, t0 time.Time) []float64 {
	cycles := make([]float64, 0, len(ackAt))
	for i, end := range ackAt {
		start := t0
		if i >= fleetWorkers && i-fleetWorkers < len(acks) {
			start = acks[i-fleetWorkers].at
		}
		if d := end.Sub(start); d > 0 {
			cycles = append(cycles, ms(d))
		}
	}
	return cycles
}

// spanLayers turns the traced window's spans into the collect/interp
// layer costs and the ledger: one row per layer of self time on a
// worker's blocking path, per report, in worker-microseconds. The rows of
// one fleet.run trace sum to its duration by construction; what the
// ledger cannot place (dispatch between runs, fleet start and join) is
// the residual.
func (f *fleetCcrypt) spanLayers(c *runCtx, p *pass, recs []trace.Record, n int, tail time.Duration) {
	st := analyzeSpans(recs)
	m := p.spanLayer
	m["interp.run_us"] = st.meanUS("fleet.execute")
	m["collect.submit_us"] = st.selfPerUS("client.submit", st.count["client.submit"])
	m["collect.ingest_us"] = st.meanUS("server.ingest")
	m["collect.decode_us"] = st.meanUS("server.decode")
	m["collect.fold_us"] = st.meanUS("server.fold")

	workerUS := us(p.wall) * fleetWorkers
	m["interp.busy_share"] = us(st.total["fleet.execute"]) / workerUS

	wallUS := workerUS / float64(n)
	// Both workers idle from the last ack until the root's snapshot shows
	// it: the federation cut and push, then the snapshot tick.
	m[ledgerVisibleWait] = us(tail) * fleetWorkers / float64(n)
	sum := m[ledgerVisibleWait]
	for _, row := range ledgerRows {
		m[row.name] = st.selfPerUS(row.span, n)
		sum += m[row.name]
	}
	residual := 1 - sum/wallUS
	m["ledger.wall_us"] = wallUS
	m["ledger.residual_share"] = residual
	// Off the blocking path: the staged folder works after the 202.
	m["ledger.fold_us"] = st.selfPerUS("server.fold", n)
	c.check("fleet_ccrypt.ledger_sums_to_wall", residual <= ledgerResidualLimit && residual >= -ledgerResidualLimit,
		fmt.Sprintf("ledger rows cover %.1f of %.1f worker-us per report (residual %.3f, limit %.2f)",
			sum, wallUS, residual, ledgerResidualLimit))
}

// ledgerRows are the span-derived rows: each is the self time of one span
// name on a worker's blocking path. Together with ledgerVisibleWait they
// must sum to the wall clock.
var ledgerRows = []struct{ name, span string }{
	{"ledger.execute_us", "fleet.execute"},
	{"ledger.reportof_us", "fleet.run"},
	{"ledger.submit_us", "client.submit"},
	{"ledger.http_us", "client.attempt"},
	{"ledger.stage_us", "server.ingest"},
	{"ledger.decode_us", "server.decode"},
}

const ledgerVisibleWait = "ledger.visible_wait_us"

// ledgerResidualLimit is the share of the wall clock the ledger may leave
// unexplained before the traced run fails.
const ledgerResidualLimit = 0.15

// probes times single layers on this workload's own program and reports,
// then the live servers' read paths and one federation cycle.
func (f *fleetCcrypt) probes(c *runCtx, p *pass) {
	m := p.spanLayer
	src := source{name: "ccrypt", text: wl.CcryptSource, builtins: wl.CcryptBuiltins(),
		schemes: instrument.SchemeSet{Returns: true}}
	if err := buildLayers(m, []source{src}, 20); err != nil {
		c.check("fleet_ccrypt.probe_build", false, err.Error())
	}
	reportLayers(m, f.sample, f.built.Program.NumCounters, nil)
	samplerLayer(m, fleetDensity)

	// One VM run as the fleet makes it (the seed derivations mirror
	// workloads.CcryptFleet): allocation cost per run, and the mean step
	// count of the window's first runs, which repeats for a fixed seed.
	code := interp.Compile(f.built.Program)
	var res interp.Result
	runOne := func(seed int64) {
		world := wl.NewCcryptWorld(seed*2654435761 + 1)
		res = code.Run(interp.Config{
			Seed: seed, Density: fleetDensity, CountdownSeed: seed*40503 + 7,
			Intrinsics: world.Intrinsics(),
		})
	}
	steps := 0.0
	for i := range f.sample {
		runOne(f.seedBase + int64(i))
		steps += float64(res.Steps)
	}
	m["interp.steps"] = steps / float64(len(f.sample))
	seed := f.seedBase
	run := probe(func() { seed++; runOne(seed) })
	m["interp.allocs_per_run"] = run.allocs
	m["interp.bytes_per_run"] = run.bytes
	m["workloads.reportof_ns"] = probe(func() { probeSink = wl.ReportOf("ccrypt", 1, res) }).ns

	if err := serverProbes(m, func() { f.edge.Aggregate() }, f.edgeURL, f.rootURL); err != nil {
		c.check("fleet_ccrypt.probe_server", false, err.Error())
	}

	// One federation cycle: cut (drain, merge shards, diff, encode), push,
	// root merge. Each cycle ships a fresh delta of probeReports reports.
	const probeReports = 256
	var cycles []float64
	for i := 0; i < 5; i++ {
		db, err := wl.CcryptFleet(f.built.Program, wl.FleetConfig{
			Runs: probeReports, Density: fleetDensity,
			SeedBase: f.seedBase + int64(f.acked) + 1<<32,
			Workers:  fleetWorkers, Submit: f.client.SubmitContext,
		})
		if err != nil {
			c.check("fleet_ccrypt.probe_federate", false, err.Error())
			return
		}
		for _, rep := range db.Reports {
			f.foldAcked(rep)
		}
		t0 := time.Now()
		if err := f.edge.FederateNow(); err != nil {
			c.check("fleet_ccrypt.probe_federate", false, err.Error())
			return
		}
		cycles = append(cycles, ms(time.Since(t0)))
	}
	m["collect.federate_ms"] = median(cycles)
}

// verify checks the one statement every collector test rests on: root
// state equals the serial fold of exactly the acknowledged reports.
func (f *fleetCcrypt) verify(c *runCtx) {
	if err := f.edge.FederateNow(); err != nil {
		c.check("fleet_ccrypt.flush", false, err.Error())
		return
	}
	if f.oracleErr != nil {
		c.check("fleet_ccrypt.oracle", false, f.oracleErr.Error())
		return
	}
	rootAgg := f.root.Aggregate()
	c.check("fleet_ccrypt.no_loss_no_double_count", rootAgg.Runs == f.acked,
		fmt.Sprintf("root folded %d runs, %d were acknowledged", rootAgg.Runs, f.acked))
	c.check("fleet_ccrypt.root_aggregate", reflect.DeepEqual(rootAgg, f.oracleAgg),
		"root Aggregate() differs from the serial fold of the acknowledged reports")
	rootRank := score.Rank(f.root.ScoreState().Predicates())
	c.check("fleet_ccrypt.root_ranking", reflect.DeepEqual(rootRank, score.Rank(f.oracleAcc.Predicates())),
		"root ScoreState() ranking differs from the serial fold")
	if f.acked < fleetPlantedMinRuns {
		return // too few runs for the ranking to be a claim (test scale)
	}
	top := "none"
	if len(rootRank) > 0 {
		top = f.built.Program.PredicateName(rootRank[0].Counter)
	}
	c.check("fleet_ccrypt.planted_bug_ranks_first", strings.Contains(top, fleetPlanted),
		fmt.Sprintf("rank-1 predicate is %q, want %q", top, fleetPlanted))
}

func (f *fleetCcrypt) close() {
	if f.watch != nil {
		f.watch.stop()
	}
	if f.edge != nil {
		f.edge.Stop()
	}
	if f.root != nil {
		f.root.Stop()
	}
	if f.client != nil {
		f.client.HTTP.CloseIdleConnections()
	}
}
