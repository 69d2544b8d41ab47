// cbi-collect is the standalone central collection server: it accepts
// encoded run reports over HTTP — one per POST at /report, or many per
// POST at /reports (report.EncodeBatch framing) — and serves a summary
// at /stats. Ingest stripes across -shards mutexes hashed on run ID, so
// concurrent submissions scale with cores. The handlers run the staged
// hot path: decode + validate + enqueue into per-shard ring buffers
// (-stage-ring slots each) drained by background folders; when a ring
// stays full past -stage-wait the request is shed with 503 +
// Retry-After instead of blocking. In aggregate mode it retains only
// sufficient statistics, the §5 privacy posture. With -metrics (the default) it also serves
// Prometheus metrics at /metrics and a liveness/drain probe at /healthz;
// -log-json emits one structured JSON event per accepted report.
//
// With -dashboard the server becomes a live triage console: it keeps
// incremental top-K predicate rankings (recomputed every -rankings-every
// folded reports and every -rankings-interval), streams snapshot /
// converged events over SSE at /watch, serves the current rankings as
// JSON at /rankings?top=K, and hosts a dependency-free HTML dashboard at
// /dashboard. -sites points at a site manifest written by
// `cbi-analyze -sites-out`, giving the rankings site context and
// human-readable predicate names.
//
// With -role the server joins a federated collector tree: edges
// (-role edge -parent URL) ingest as usual but periodically cut delta
// merges of sufficient statistics — aggregate counters, scoring
// accumulators, quality digests — and push them upstream to a root
// (-role root) over /merge in a compact length-prefixed wire format
// with per-edge epoch cursors, so each push carries only the folds
// since the last acknowledged epoch and replayed pushes deduplicate
// exactly-once. The root serves the usual /stats, /rankings, /watch
// and /quality surfaces over the merged state. -spill-dir gives any
// server crash-safe persistence: an append-only report log plus
// periodic state snapshots, replayed on restart so no acknowledged
// report is lost.
//
// With -quality (the default) the server also runs the ingest-quality
// engine (package quality): streaming sketches over report sizes and
// sparsity, heavy-hitter source fingerprints, an online check of
// observed counter totals against the advertised -quality-density, and
// anomaly detection (rate spikes, rejection surges, ingest stalls,
// density drift) evaluated every -quality-interval. The population
// health surface is served at /quality, recently rejected payloads at
// /debug/badreports, and — with -dashboard — anomaly/recovered events
// ride the /watch SSE stream and a Population health panel appears on
// /dashboard.
//
// Observability extras: -pprof mounts net/http/pprof under
// /debug/pprof/ on the same mux (off by default — profiling endpoints
// should not be exposed unintentionally); -trace-out continues each
// report's X-CBI-Trace context through decode and fold and writes the
// collected spans to a file at shutdown; -metrics-out writes a final
// Prometheus snapshot to a file on graceful shutdown so the last
// scrape's worth of state survives the process.
//
// Usage:
//
//	cbi-collect -addr 127.0.0.1:8099 -counters 1710 -program ccrypt -mode store
//	curl -s http://127.0.0.1:8099/metrics | grep collect_
//	go tool pprof http://127.0.0.1:8099/debug/pprof/heap   # with -pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cbi/internal/collect"
	"cbi/internal/monitor"
	"cbi/internal/quality"
	"cbi/internal/telemetry/trace"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8099", "listen address")
		program    = flag.String("program", "", "program build name (empty accepts any)")
		counters   = flag.Int("counters", 0, "expected counter-vector length (0 accepts any)")
		mode       = flag.String("mode", "store", "store | aggregate")
		shards     = flag.Int("shards", 0, "ingest stripes, rounded up to a power of two (0 = NumCPU)")
		stageRing  = flag.Int("stage-ring", 0, "per-shard staging-ring capacity, rounded up to a power of two (0 = default 1024)")
		stageWait  = flag.Duration("stage-wait", 0, "how long an enqueue waits for ring space before shedding 503 + Retry-After (0 = default 100ms, negative = shed immediately)")
		metrics    = flag.Bool("metrics", true, "serve /metrics and /healthz")
		metricsOut = flag.String("metrics-out", "", "write a final Prometheus metrics snapshot to this file on graceful shutdown")
		pprof      = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		traceOut   = flag.String("trace-out", "", "continue submitters' trace contexts and write collected spans to this file at shutdown (.json Chrome trace-event, .jsonl span records)")
		logJSON    = flag.Bool("log-json", false, "log structured JSON events to stderr")

		qualityOn  = flag.Bool("quality", true, "run the ingest-quality engine (/quality, /debug/badreports, anomaly events)")
		qualityIvl = flag.Duration("quality-interval", time.Second, "anomaly-evaluation cadence for the quality engine")
		qualityDen = flag.Float64("quality-density", 0, "advertised sampling density 1/d for the sampling-distance check (0 = unknown)")
		qualityRng = flag.Int("quality-ring", 64, "rejected-payload forensic ring size (/debug/badreports)")
		qualityTop = flag.Int("quality-topk", 10, "heavy-hitter sources listed in /quality")

		role      = flag.String("role", "", "collector-tree role: edge (push delta merges to -parent) | root (accept /merge pushes); empty = standalone")
		parent    = flag.String("parent", "", "with -role edge: base URL of the upstream collector (e.g. http://root:8123)")
		edgeID    = flag.String("edge-id", "", "with -role edge: stable edge identity at the root (empty = reuse the one persisted in -spill-dir, else random)")
		mergeIvl  = flag.Duration("merge-interval", time.Second, "with -role edge: delta cut-and-push cadence")
		spillDir  = flag.String("spill-dir", "", "spill-to-disk directory (append-only report log + state snapshots, replayed on restart); empty disables")
		spillSnap = flag.Duration("spill-snapshot", 0, "snapshot cadence for a spill-enabled server without federation (0 = default 30s; federated edges persist at every cut)")

		dashboard     = flag.Bool("dashboard", false, "enable the live triage console (/rankings, /watch, /dashboard)")
		rankingsEvery = flag.Int("rankings-every", 500, "with -dashboard: snapshot rankings every N folded reports (0 disables the count cadence)")
		rankingsIvl   = flag.Duration("rankings-interval", 2*time.Second, "with -dashboard: also snapshot on this wall-clock cadence (0 disables)")
		topK          = flag.Int("top", 10, "with -dashboard: ranked predicates per snapshot and convergence window")
		stableFor     = flag.Int("stable", 3, "with -dashboard: consecutive unchanged snapshots before declaring convergence")
		sitesPath     = flag.String("sites", "", "with -dashboard: site manifest from `cbi-analyze -sites-out` (counter spans + predicate names)")
	)
	flag.Parse()

	m := collect.StoreAll
	if *mode == "aggregate" {
		m = collect.AggregateOnly
	} else if *mode != "store" {
		fmt.Fprintln(os.Stderr, "cbi-collect: unknown mode", *mode)
		os.Exit(1)
	}
	// A site manifest (live triage) also pins the expected counter shape
	// unless -counters overrides it.
	var man *monitor.Manifest
	if *dashboard && *sitesPath != "" {
		var err error
		if man, err = monitor.LoadManifest(*sitesPath); err != nil {
			fmt.Fprintln(os.Stderr, "cbi-collect:", err)
			os.Exit(1)
		}
		if *counters == 0 {
			*counters = man.NumCounters
		}
	}
	srv := collect.NewServer(*program, *counters, m)
	srv.ExposeTelemetry = *metrics
	srv.EnablePprof = *pprof
	srv.Shards = *shards
	srv.StageCapacity = *stageRing
	srv.StageWait = *stageWait
	switch *role {
	case "":
	case "root":
		srv.AcceptMerges = true
	case "edge":
		if *parent == "" {
			fmt.Fprintln(os.Stderr, "cbi-collect: -role edge requires -parent")
			os.Exit(1)
		}
		srv.Federation = &collect.Federation{
			Parent:   *parent,
			EdgeID:   *edgeID,
			Interval: *mergeIvl,
		}
	default:
		fmt.Fprintln(os.Stderr, "cbi-collect: unknown role", *role)
		os.Exit(1)
	}
	srv.SpillDir = *spillDir
	srv.SpillSnapshotInterval = *spillSnap
	if *traceOut != "" {
		srv.Tracer = trace.NewCollector()
	}
	if *dashboard {
		cfg := monitor.Config{
			TopK:         *topK,
			EveryReports: *rankingsEvery,
			Interval:     *rankingsIvl,
			StableFor:    *stableFor,
		}
		if man != nil {
			srv.Sites = man.Spans()
			cfg.PredicateName = man.PredicateName
		}
		srv.Monitor = monitor.New(cfg)
	}
	if *qualityOn {
		srv.Quality = quality.New(quality.Config{
			Interval: *qualityIvl,
			Density:  *qualityDen,
			RingSize: *qualityRng,
			TopK:     *qualityTop,
		})
	}
	if *logJSON {
		srv.Registry().SetLogWriter(os.Stderr)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbi-collect:", err)
		os.Exit(1)
	}
	fmt.Printf("cbi-collect: listening on http://%s (mode=%s)\n", bound, *mode)
	if *role == "root" {
		fmt.Printf("cbi-collect: accepting edge delta merges at http://%s/merge\n", bound)
	}
	if *role == "edge" {
		fmt.Printf("cbi-collect: pushing delta merges to %s/merge every %s\n", *parent, *mergeIvl)
	}
	if *spillDir != "" {
		fmt.Printf("cbi-collect: spilling to %s (log + snapshots, replayed on restart)\n", *spillDir)
	}
	if *metrics {
		fmt.Printf("cbi-collect: metrics at http://%s/metrics, health at http://%s/healthz\n", bound, bound)
	}
	if *pprof {
		fmt.Printf("cbi-collect: pprof at http://%s/debug/pprof/\n", bound)
	}
	if *dashboard {
		fmt.Printf("cbi-collect: live triage at http://%s/dashboard (rankings at /rankings, SSE at /watch)\n", bound)
	}
	if *qualityOn {
		fmt.Printf("cbi-collect: population health at http://%s/quality (forensics at /debug/badreports)\n", bound)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	agg := srv.Aggregate()
	fmt.Printf("\ncbi-collect: draining (up to %s) after %d runs (%d crashes)\n",
		collect.ShutdownTimeout, agg.Runs, agg.Crashes)
	if err := srv.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "cbi-collect: shutdown:", err)
	}
	if srv.Tracer != nil {
		if err := srv.Tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "cbi-collect: writing trace:", err)
		} else {
			fmt.Printf("cbi-collect: wrote %d trace spans to %s\n", srv.Tracer.Len(), *traceOut)
		}
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err == nil {
			err = srv.Registry().WritePrometheus(mf)
			if cerr := mf.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cbi-collect: writing metrics snapshot:", err)
		} else {
			fmt.Println("cbi-collect: final metrics snapshot written to", *metricsOut)
		}
	}
	if *metrics {
		fmt.Println("cbi-collect: final metrics snapshot:")
		_ = srv.Registry().WritePrometheus(os.Stdout)
	}
}
