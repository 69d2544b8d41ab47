// cbi-collect is the standalone central collection server: it accepts
// encoded run reports over HTTP — one per POST at /report, or many per
// POST at /reports (report.EncodeBatch framing) — and serves a summary
// at /stats. Ingest stripes across one mutex per CPU (rounded up to a
// power of two) hashed on run ID, so concurrent submissions scale with
// cores. The handlers run the staged hot path: decode + validate +
// enqueue into per-shard ring buffers of 1024 slots drained by
// background folders; when a ring stays full past 100ms the request is
// shed with 503 + Retry-After instead of blocking. In aggregate mode it
// retains only sufficient statistics, the §5 privacy posture. It always
// serves Prometheus metrics at /metrics and a liveness/drain probe at
// /healthz, and prints a final metrics snapshot on stdout at shutdown.
//
// Every server also runs the ingest-quality engine (package quality),
// evaluated once a second: exact report-size and sparsity totals (with
// p50/p99 read from the collector's own histograms), an online check of
// observed counter totals against the advertised -quality-density, and
// anomaly detection (rate spikes, rejection surges, ingest stalls,
// density drift). The population health surface is served at /quality
// and the last 64 rejected payloads at /debug/badreports.
//
// -sites points at a site manifest written by `cbi-analyze -sites-out`:
// it pins the expected counter shape (unless -counters overrides it) and
// gives scoring site context in every role, so an edge built with it
// can feed a dashboard root. With -dashboard the server becomes a live
// triage console: it keeps incremental top-10 predicate rankings
// (snapshotted every 500 folded reports and every 2s, converged after 3
// unchanged snapshots), streams snapshot / converged / anomaly events
// over SSE at /watch, serves the current rankings as JSON at
// /rankings?top=K, and hosts a dependency-free HTML dashboard at
// /dashboard; the manifest's predicate names label the rankings.
//
// With -role the server joins a federated collector tree: edges
// (-role edge -parent URL) ingest as usual but every second cut delta
// merges of sufficient statistics — aggregate counters, scoring
// accumulators, quality digests — and push them upstream to a root
// (-role root) over /merge in a compact length-prefixed wire format
// with per-edge epoch cursors, so each push carries only the folds
// since the last acknowledged epoch and replayed pushes deduplicate
// exactly-once. The root serves the usual /stats, /rankings, /watch
// and /quality surfaces over the merged state. -spill-dir gives any
// server crash-safe persistence: an append-only report log plus state
// snapshots (every 30s, or at every cut on an edge), replayed on
// restart so no acknowledged report is lost.
//
// -pprof mounts net/http/pprof under /debug/pprof/ on the same mux (off
// by default — profiling endpoints should not be exposed
// unintentionally); -trace-out continues each report's X-CBI-Trace
// context through decode and fold and writes the collected spans to a
// file at shutdown.
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
		counters   = flag.Int("counters", 0, "expected counter-vector length (0 accepts any, or the -sites manifest's)")
		mode       = flag.String("mode", "store", "store | aggregate")
		role       = flag.String("role", "", "collector-tree role: edge (push delta merges to -parent) | root (accept /merge pushes); empty = standalone")
		parent     = flag.String("parent", "", "with -role edge: base URL of the upstream collector (e.g. http://root:8123)")
		edgeID     = flag.String("edge-id", "", "with -role edge: stable edge identity at the root (empty = reuse the one persisted in -spill-dir, else random)")
		spillDir   = flag.String("spill-dir", "", "spill-to-disk directory (append-only report log + state snapshots, replayed on restart); empty disables")
		dashboard  = flag.Bool("dashboard", false, "enable the live triage console (/rankings, /watch, /dashboard)")
		sitesPath  = flag.String("sites", "", "site manifest from `cbi-analyze -sites-out` (counter spans + predicate names)")
		qualityDen = flag.Float64("quality-density", 0, "advertised sampling density 1/d for the sampling-distance check (0 = unknown)")
		pprof      = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		traceOut   = flag.String("trace-out", "", "continue submitters' trace contexts and write collected spans to this file at shutdown (.json Chrome trace-event, .jsonl span records)")
	)
	flag.Parse()

	m := collect.StoreAll
	if *mode == "aggregate" {
		m = collect.AggregateOnly
	} else if *mode != "store" {
		fmt.Fprintln(os.Stderr, "cbi-collect: unknown mode", *mode)
		os.Exit(1)
	}
	// A site manifest pins the expected counter shape unless -counters
	// overrides it, and its spans travel in every merge this server cuts
	// or accepts, so it applies whatever the role.
	var man *monitor.Manifest
	if *sitesPath != "" {
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
	srv.EnablePprof = *pprof
	if man != nil {
		srv.Sites = man.Spans()
	}
	switch *role {
	case "":
	case "root":
		srv.AcceptMerges = true
	case "edge":
		if *parent == "" {
			fmt.Fprintln(os.Stderr, "cbi-collect: -role edge requires -parent")
			os.Exit(1)
		}
		srv.Federation = &collect.Federation{Parent: *parent, EdgeID: *edgeID}
	default:
		fmt.Fprintln(os.Stderr, "cbi-collect: unknown role", *role)
		os.Exit(1)
	}
	srv.SpillDir = *spillDir
	if *traceOut != "" {
		srv.Tracer = trace.NewCollector()
	}
	if *dashboard {
		cfg := monitor.Config{TopK: 10, EveryReports: 500, Interval: 2 * time.Second}
		if man != nil {
			cfg.PredicateName = man.PredicateName
		}
		srv.Monitor = monitor.New(cfg)
	}
	srv.Quality = quality.New(quality.Config{Interval: time.Second, Density: *qualityDen})
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
		fmt.Printf("cbi-collect: pushing delta merges to %s/merge every second\n", *parent)
	}
	if *spillDir != "" {
		fmt.Printf("cbi-collect: spilling to %s (log + snapshots, replayed on restart)\n", *spillDir)
	}
	fmt.Printf("cbi-collect: metrics at http://%s/metrics, health at http://%s/healthz\n", bound, bound)
	if *pprof {
		fmt.Printf("cbi-collect: pprof at http://%s/debug/pprof/\n", bound)
	}
	if *dashboard {
		fmt.Printf("cbi-collect: live triage at http://%s/dashboard (rankings at /rankings, SSE at /watch)\n", bound)
	}
	fmt.Printf("cbi-collect: population health at http://%s/quality (forensics at /debug/badreports)\n", bound)

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
	fmt.Println("cbi-collect: final metrics snapshot:")
	_ = srv.Registry().WritePrometheus(os.Stdout)
}
