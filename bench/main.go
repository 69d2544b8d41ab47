// Command bench is the repository's benchmark: four workloads that time
// the paper's two user-visible costs (the deployed program's sampling
// overhead; the collector-side developer's time to a ranked verdict) end
// to end, and a per-layer ledger for each. BENCHMARK.json at the
// repository root names every metric, its unit, direction and bound.
//
// Three modes:
//
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//	    one run; the last stdout line is the result object
//	go run -C bench . -seed 1 -out out
//	    the whole suite, each run in a child process; writes out/results.json
//	go run -C bench . -compare old.json new.json
//	    row per (workload, metric) with a verdict; non-zero on any regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: fleet_ccrypt | ingest_bc | table2_vm | analyze_bc (empty = whole suite)")
		seed     = fs.Int64("seed", 1, "workload seed; inputs are a pure function of it")
		seconds  = fs.Float64("seconds", 0, "measured window in seconds (0 = run_seconds from BENCHMARK.json)")
		traced   = fs.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced pass")
		outDir   = fs.String("out", "out", "directory for result files, traces and scratch files")
		specPath = fs.String("spec", "", "path to BENCHMARK.json (default: ./ then ../)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload == "":
		cfg := suiteConfig{seed: *seed, seconds: *seconds, outDir: *outDir, specPath: *specPath}
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return runSuite(sp, cfg, childProcess(exe, cfg, stderr), stdout, stderr)
	}
	if !sp.workload(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	c := newRunCtx(sp, *workload, *seed, *seconds, *traced != 0, *outDir)
	if err := runWorkload(c); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, err := c.result()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c.print(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a single run prints as its last stdout line.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo rides on a "#info " line before the result: what the suite
// needs for the environment envelope and what a human needs to see which
// check failed. An untraced run adds the per-layer metrics -compare
// judges (layerBounds), measured over its full window.
type runInfo struct {
	Sizes  map[string]float64 `json:"sizes"`
	Pools  map[string]string  `json:"pools"`
	Checks []checkResult      `json:"checks"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runCtx carries one run's parameters in and its metrics, checks and
// operation counts out.
type runCtx struct {
	spec     *spec
	workload string
	seed     int64
	seconds  float64
	// scale multiplies every workload size. It is 1 except in the tests,
	// which run the workloads at 1/100 size.
	scale  float64
	traced bool
	outDir string

	metrics   map[string]float64
	info      runInfo
	attempted int
	failed    int
}

func newRunCtx(sp *spec, workload string, seed int64, seconds float64, traced bool, outDir string) *runCtx {
	return &runCtx{
		spec: sp, workload: workload, seed: seed, seconds: seconds, scale: 1,
		traced: traced, outDir: outDir,
		metrics: map[string]float64{},
		info:    runInfo{Sizes: map[string]float64{}, Pools: map[string]string{}},
	}
}

func (c *runCtx) set(name string, v float64) { c.metrics[name] = v }

// setAll copies a pass's metrics in, later calls overriding earlier ones.
func (c *runCtx) setAll(m map[string]float64) {
	for k, v := range m {
		c.metrics[k] = v
	}
}

// ops adds operations attempted and failed; a failed correctness check
// counts as one failed operation (see check).
func (c *runCtx) ops(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

func (c *runCtx) check(name string, ok bool, detail string) {
	c.info.Checks = append(c.info.Checks, checkResult{Name: name, OK: ok, Detail: detail})
	c.ops(1, 0)
	if !ok {
		c.failed++
	}
}

// scaled sizes a count by the window length and the test scale, with a
// floor that keeps the statistical checks meaningful at 1/100 size.
func (c *runCtx) scaled(perSecond float64, floor int) int {
	return c.fixed(perSecond*c.seconds, floor)
}

// fixed sizes a count that does not grow with the window (a pool, a
// warm-up) by the test scale alone, with a floor.
func (c *runCtx) fixed(n float64, floor int) int {
	v := int(math.Round(n * c.scale))
	if v < floor {
		v = floor
	}
	return v
}

// result assembles the output object: with tracing off exactly the
// end-to-end metrics, with tracing on exactly the per-layer ones. A
// per-layer metric a workload bypasses reads 0; an end-to-end metric must
// be a finite non-zero measurement on every workload.
func (c *runCtx) result() (runResult, error) {
	want := c.spec.EndToEnd
	if c.traced {
		want = c.spec.PerLayer
	}
	known := map[string]bool{}
	for _, list := range [][]metricSpec{c.spec.EndToEnd, c.spec.PerLayer} {
		for _, m := range list {
			known[m.Name] = true
		}
	}
	for name := range c.metrics {
		if !known[name] {
			return runResult{}, fmt.Errorf("%s emitted %q, which BENCHMARK.json does not name", c.workload, name)
		}
	}
	res := runResult{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := c.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return runResult{}, fmt.Errorf("%s: metric %s is %v", c.workload, m.Name, v)
		}
		if !c.traced && (!ok || v == 0) {
			return runResult{}, fmt.Errorf("%s: end-to-end metric %s was not measured", c.workload, m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return runResult{}, fmt.Errorf("%s attempted no operation", c.workload)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// print writes `workload metric value unit` rows, failed checks, the
// #info line and, last, the result object.
func (c *runCtx) print(w io.Writer, res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", c.workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, ch := range c.info.Checks {
		if !ch.OK {
			fmt.Fprintf(w, "%s CHECK FAILED %s: %s\n", c.workload, ch.Name, ch.Detail)
		}
	}
	info, _ := json.Marshal(c.info)
	fmt.Fprintf(w, "#info %s\n", info)
	out, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", out)
}
