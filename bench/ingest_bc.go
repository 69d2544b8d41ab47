package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/collect"
	"cbi/internal/instrument"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
	wl "cbi/internal/workloads"
)

// Sizes of ingest_bc. Rates and counts are constants sized on the 2-core
// reference machine: the paced rate sits near half of what the saturate
// phase sustains there, so the open loop is loaded but has headroom.
const (
	ingestPool        = 4096
	ingestDensity     = 1.0 / 10
	ingestBatch       = 32
	ingestWarmup      = 1024
	ingestPacedRate   = 16000 // reports per second, open loop: one batch every 2 ms
	ingestPacedShare  = 0.5   // of the window; the rest is the saturate phase
	ingestSaturateRPS = 80000 // saturate reports per second of its share (about 9 s of sending at the default window)
	ingestSenders     = 2     // saturate phase, closed loop
	ingestReadHz      = 20    // mean; Poisson arrivals
	// lateLimit: a paced run whose generator ran later than this at p99
	// measured its own scheduling, not the collector, and is invalid.
	lateLimit = 2.5
)

// ingestBC drives one collector with pre-generated bc reports: the VM is
// off the clock, so collect/report/score/monitor/quality do all the work.
type ingestBC struct {
	built  *wl.Built
	pool   []*report.Report
	tracer *trace.Collector

	srv       *collect.Server
	url       string
	http      *http.Client
	clientReg *telemetry.Registry
	watch     *watcher

	nextID uint64
	// ackedPerPool counts, per pool entry, how many acknowledged reports
	// replayed it: the oracle folds each entry that many times. The two
	// saturate senders record under ackMu.
	ackMu        sync.Mutex
	ackedPerPool []int
	acked        int
}

func setupIngestBC(c *runCtx, tr *trace.Collector) (instance, error) {
	built, err := wl.BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
	if err != nil {
		return nil, err
	}
	poolSize := c.fixed(ingestPool, 128)
	db, err := wl.BCFleet(built.Program, wl.FleetConfig{
		Runs: poolSize, Density: ingestDensity, SeedBase: c.seed * 1_000_003, Workers: 2,
	})
	if err != nil {
		return nil, err
	}
	g := &ingestBC{built: built, pool: db.Reports, tracer: tr, ackedPerPool: make([]int, poolSize)}
	for _, r := range g.pool {
		r.Nonzeros() // build the sparse cache before senders share the pool
	}

	g.srv = collect.NewServer("bc", built.Program.NumCounters, collect.AggregateOnly)
	g.srv.Sites = siteSpans(built.Program)
	g.srv.Monitor = monitor.New(monitor.Config{
		TopK: 10, Interval: snapshotEvery, PredicateName: built.Program.PredicateName,
	})
	g.srv.Quality = quality.New(quality.Config{})
	g.srv.Tracer = tr
	addr, err := g.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.url = "http://" + addr
	if g.watch, err = startWatch(g.url); err != nil {
		g.close()
		return nil, err
	}
	g.http = newSenderHTTP()
	g.clientReg = telemetry.NewRegistry()

	warm := c.fixed(ingestWarmup, 2*ingestBatch)
	s := g.newSender()
	for sent := 0; sent < warm; sent += ingestBatch {
		if err := s.send(context.Background(), g.claim(ingestBatch)); err != nil {
			g.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return g, nil
}

// batch is a claimed range of run IDs; report i of the range replays pool
// entry (first+i) mod len(pool).
type batch struct {
	first uint64
	n     int
}

// claim reserves the next n run IDs for the single-goroutine phases
// (warm-up, paced); the saturate phase reserves its whole range up front
// and its senders take batch indices from an atomic counter.
func (g *ingestBC) claim(n int) batch {
	b := batch{first: g.nextID, n: n}
	g.nextID += uint64(n)
	return b
}

// sender is one closed connection's worth of client: its own batching
// collect.Client over the shared two-connection transport.
type sender struct {
	g      *ingestBC
	client *collect.Client
}

func (g *ingestBC) newSender() *sender {
	cl := collect.NewClient(g.url)
	cl.HTTP = g.http
	cl.Metrics = g.clientReg
	cl.BatchSize = ingestBatch
	return &sender{g: g, client: cl}
}

// send replays one batch with fresh run IDs through the client's batched
// path (/reports) and blocks until it is acknowledged. On success the
// batch joins the acknowledged set.
func (s *sender) send(ctx context.Context, b batch) error {
	pool := s.g.pool
	var err error
	for i := 0; i < b.n && err == nil; i++ {
		rep := *pool[(b.first+uint64(i))%uint64(len(pool))]
		rep.RunID = b.first + uint64(i)
		err = s.client.SubmitContext(ctx, &rep)
	}
	if err == nil {
		err = s.client.Flush(ctx) // ships a short final batch; no-op otherwise
	}
	if err != nil {
		return err
	}
	s.g.recordAcked(b)
	return nil
}

func (g *ingestBC) recordAcked(b batch) {
	g.ackMu.Lock()
	for i := 0; i < b.n; i++ {
		g.ackedPerPool[(b.first+uint64(i))%uint64(len(g.pool))]++
	}
	g.acked += b.n
	g.ackMu.Unlock()
}

func (g *ingestBC) measure(c *runCtx, size float64) (*pass, error) {
	// The window opens once the warm-up is visible: a wait for a snapshot
	// tick, not for work, so it is in neither setup_s nor the window.
	if _, ok := g.watch.waitRuns(g.acked, visibleTimeout); !ok {
		return nil, fmt.Errorf("warm-up: %d reports never became visible", g.acked)
	}
	pacedSeconds := c.seconds * size * ingestPacedShare
	pacedBatches := int(pacedSeconds * c.scale * ingestPacedRate / ingestBatch)
	if pacedBatches < 100 {
		pacedBatches = 100
	}
	satBatches := c.scaled(ingestSaturateRPS*size*(1-ingestPacedShare)/ingestBatch, 50)
	c.info.Sizes["ingest_bc.pool"] = float64(len(g.pool))
	c.info.Sizes["ingest_bc.paced_reports"] = float64(pacedBatches * ingestBatch)
	c.info.Sizes["ingest_bc.saturate_reports"] = float64(satBatches * ingestBatch)

	spanStart := g.tracer.Len()
	client0 := readClientCounts(g.clientReg)
	_, events0 := g.watch.snapshot()
	page0, err := scrape(g.url)
	if err != nil {
		return nil, err
	}

	// Phase 1, paced: open loop, one sender, a reader beside it.
	offset := g.acked
	backlog := startBacklog(func() int { return g.watch.latestRuns() - offset })
	// Reads arrive as a Poisson process of mean rate ingestReadHz, drawn
	// from the seed. At a fixed 50 ms, 25 batch periods exactly, every read
	// of a run would meet the sender at one phase of its 2 ms cycle, a
	// different one each run, and read_* would measure that phase.
	rng := rand.New(rand.NewSource(c.seed))
	reader := startReader(g.url+"/rankings?fresh=1&top=10", func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(time.Second) / ingestReadHz)
	})
	s := g.newSender()
	p0 := sampleProc()
	gen := runOpenLoop(pacedBatches, time.Second*ingestBatch/ingestPacedRate,
		func(i int) error {
			root := g.tracer.StartSpan("gen.batch")
			defer root.End()
			b := g.claim(ingestBatch)
			err := s.send(trace.NewContext(context.Background(), root), b)
			if err == nil {
				backlog.acked.Add(ingestBatch)
			}
			return err
		})
	reads := reader.stop()
	pacedVisibleAt, visible := g.watch.waitRuns(g.acked, visibleTimeout)
	p1 := sampleProc()
	backlogMax := backlog.stop()
	pacedAcked := g.acked - offset
	c.ops(pacedBatches*ingestBatch, pacedBatches*ingestBatch-pacedAcked)
	c.ops(len(reads.lat), reads.failed)
	if !visible {
		c.check("ingest_bc.paced_visible", false,
			fmt.Sprintf("%d acked reports, snapshot shows %d", g.acked, g.watch.latestRuns()))
	}
	if pacedAcked == 0 {
		return nil, fmt.Errorf("paced phase: no batch was acknowledged")
	}
	lateP99 := percentile(gen.late, 99)
	// Below the floor the phase is too short to judge the generator.
	if pacedBatches >= 1000 {
		c.check("ingest_bc.paced_generator_on_time", lateP99 <= lateLimit,
			fmt.Sprintf("open loop ran %.2f ms late at p99 (limit %.1f ms): run invalid", lateP99, lateLimit))
	}

	events, _ := g.watch.snapshot()
	var acks []ack
	count := 0
	for i, at := range gen.ackAt {
		if gen.lat[i] == inf {
			continue
		}
		count += ingestBatch
		acks = append(acks, ack{at: at, count: count})
	}
	fresh := freshness(acks, events, offset)

	// Phase 2, saturate: closed loop, two senders, no reader.
	satOffset := g.acked
	var next atomic.Int64
	var wg sync.WaitGroup
	var satFailed atomic.Int64
	first := g.nextID
	g.nextID += uint64(satBatches * ingestBatch)
	t0 := time.Now()
	for w := 0; w < ingestSenders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := g.newSender()
			for {
				i := int(next.Add(1)) - 1
				if i >= satBatches {
					return
				}
				root := g.tracer.StartSpan("gen.batch")
				b := batch{first: first + uint64(i*ingestBatch), n: ingestBatch}
				if err := s.send(trace.NewContext(context.Background(), root), b); err != nil {
					satFailed.Add(ingestBatch)
				}
				root.End()
			}
		}()
	}
	wg.Wait()
	satVisibleAt, visible := g.watch.waitRuns(g.acked, visibleTimeout)
	satAcked := g.acked - satOffset
	c.ops(satBatches*ingestBatch, int(satFailed.Load()))
	if !visible {
		c.check("ingest_bc.saturate_visible", false,
			fmt.Sprintf("%d acked reports, snapshot shows %d", g.acked, g.watch.latestRuns()))
		satVisibleAt = time.Now()
	}
	if satAcked == 0 {
		return nil, fmt.Errorf("saturate phase: no batch was acknowledged")
	}

	p := newPass()
	// The pass's wall and ops cover both phases (the base of
	// trace_overhead); throughput is the saturate phase's, latency and CPU
	// cost the paced phase's, where the offered load is pinned.
	p.wall = pacedVisibleAt.Sub(p0.at) + satVisibleAt.Sub(t0)
	p.ops = pacedAcked + satAcked
	p.work = float64(satAcked) / satVisibleAt.Sub(t0).Seconds()
	p.opMS = median(gen.lat)
	p.proc = p0.until(p1)
	p.cpuOps = pacedAcked

	m := p.layer
	m["ack_p50_ms"] = percentile(gen.lat, 50)
	m["ack_p99_ms"] = percentile(gen.lat, 99)
	m["fresh_p50_ms"] = percentile(fresh, 50)
	m["fresh_p99_ms"] = percentile(fresh, 99)
	m["read_p50_ms"] = percentile(reads.lat, 50)
	m["read_p95_ms"] = percentile(reads.lat, 95)
	m["gen.sent"] = float64(pacedBatches * ingestBatch)
	m["gen.achieved_rate"] = float64(pacedAcked) / gen.elapsed.Seconds()
	m["gen.late_p99_ms"] = lateP99
	m["collect.backlog_max"] = backlogMax
	m["collect.slo_miss_ratio"] = sloMissRatio(gen.lat)
	clientLayers(m, g.clientReg, client0)
	page1, err := scrape(g.url)
	if err != nil {
		return nil, err
	}
	d := scrapeDelta{page0, page1}
	ingestLayers(m, d, "/reports")
	_, events1 := g.watch.snapshot()
	monitorLayers(m, d, events1-events0)

	if g.tracer != nil {
		st := analyzeSpans(g.tracer.Records()[spanStart:])
		sm := p.spanLayer
		sm["collect.submit_us"] = st.selfPerUS("client.submit_batch", st.count["client.submit_batch"])
		sm["collect.ingest_us"] = st.meanUS("server.ingest")
		sm["collect.decode_us"] = st.meanUS("server.decode")
		sm["collect.fold_us"] = st.meanUS("server.fold")
	}
	return p, nil
}

func (g *ingestBC) probes(c *runCtx, p *pass) {
	m := p.spanLayer
	src := source{name: "bc", text: wl.BCSource, schemes: instrument.SchemeSet{ScalarPairs: true}}
	if err := buildLayers(m, []source{src}, 20); err != nil {
		c.check("ingest_bc.probe_build", false, err.Error())
	}
	reportLayers(m, g.pool, g.built.Program.NumCounters, g.srv.Sites)
	if err := serverProbes(m, func() { g.srv.Aggregate() }, g.url, g.url); err != nil {
		c.check("ingest_bc.probe_server", false, err.Error())
	}
}

// verify folds each pool entry as many times as it was acknowledged, one
// report at a time, and demands the collector's state equal that.
func (g *ingestBC) verify(c *runCtx) {
	n := g.built.Program.NumCounters
	oracleAgg := report.NewAggregate("bc", n)
	oracleAcc := score.NewAccum(n, g.srv.Sites)
	for i, times := range g.ackedPerPool {
		for k := 0; k < times; k++ {
			if err := oracleAgg.Fold(g.pool[i]); err != nil {
				c.check("ingest_bc.oracle", false, err.Error())
				return
			}
			if err := oracleAcc.Fold(g.pool[i]); err != nil {
				c.check("ingest_bc.oracle", false, err.Error())
				return
			}
		}
	}
	agg := g.srv.Aggregate()
	c.check("ingest_bc.no_loss_no_double_count", agg.Runs == g.acked,
		fmt.Sprintf("collector folded %d runs, %d were acknowledged", agg.Runs, g.acked))
	c.check("ingest_bc.aggregate", reflect.DeepEqual(agg, oracleAgg),
		"Aggregate() differs from the serial fold of the acknowledged replay")
	c.check("ingest_bc.ranking",
		reflect.DeepEqual(score.Rank(g.srv.ScoreState().Predicates()), score.Rank(oracleAcc.Predicates())),
		"ScoreState() ranking differs from the serial fold")
	c.info.Pools["ingest_bc.pool"] = poolHash(g.pool)
}

func (g *ingestBC) close() {
	if g.watch != nil {
		g.watch.stop()
	}
	g.srv.Stop()
	if g.http != nil {
		g.http.CloseIdleConnections()
	}
}
