package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteTrials is how many untraced runs of each workload the suite makes;
// it reports their median and keeps the range.
const suiteTrials = 3

type suiteConfig struct {
	seed    int64
	seconds float64
	outDir  string
	// specPath is passed on to the child runs when the caller named one.
	specPath string
}

// envelope records where and how a result file was measured, next to
// every number in it; -compare refuses to compare files whose inputs
// (seed, sizes, pool hashes) differ.
type envelope struct {
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GOGC       string             `json:"gogc"`
	Kernel     string             `json:"kernel"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trials     int                `json:"trials"`
	Sizes      map[string]float64 `json:"sizes"`
	Pools      map[string]string  `json:"pools"`
}

// workloadResult is one workload's part of a result file: every untraced
// trial's end-to-end metrics, and the traced run's per-layer metrics.
type workloadResult struct {
	Trials    []map[string]float64 `json:"trials"`
	Layers    map[string]float64   `json:"layers"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

type resultFile struct {
	Env       envelope                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func newEnvelope(cfg suiteConfig) envelope {
	env := envelope{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100 (default)",
		Kernel:     "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trials:     suiteTrials,
		Sizes:      map[string]float64{},
		Pools:      map[string]string{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// childRunner runs one workload once and returns its result object and
// its #info payload. The suite's is childProcess; a test substitutes a
// fake.
type childRunner func(workload string, traced bool) (runResult, runInfo, error)

// runSuite runs every workload: suiteTrials untraced runs for the
// end-to-end metrics and one traced run for the per-layer ones, each in a
// fresh child process so memory high-water marks and warm state are its
// own. Like a single run, it exits non-zero when any run failed an
// operation or a correctness check.
func runSuite(sp *spec, cfg suiteConfig, child childRunner, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res := resultFile{Env: newEnvelope(cfg), Workloads: map[string]*workloadResult{}}
	failed := false
	for _, w := range sp.Workloads {
		wr := &workloadResult{}
		res.Workloads[w.Name] = wr
		for trial := 0; trial <= suiteTrials; trial++ {
			traced := trial == suiteTrials
			run, info, err := child(w.Name, traced)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				failed = true
				continue
			}
			values := map[string]float64{}
			for name, v := range run.Metrics {
				values[name] = v.Value
			}
			if traced {
				wr.Layers = values
			} else {
				for name, v := range info.Layers {
					values[name] = v
				}
				wr.Trials = append(wr.Trials, values)
			}
			wr.Attempted += run.Attempted
			wr.Failed += run.Failed
			for k, v := range info.Sizes {
				res.Env.Sizes[k] = v
			}
			for k, v := range info.Pools {
				res.Env.Pools[k] = v
			}
			for _, ch := range info.Checks {
				if !ch.OK {
					fmt.Fprintf(stdout, "%s CHECK FAILED %s: %s\n", w.Name, ch.Name, ch.Detail)
				}
			}
			if run.Failed > 0 || !run.Correct {
				failed = true
			}
		}
		printWorkload(stdout, sp, w.Name, wr)
	}
	path := filepath.Join(cfg.outDir, "results.json")
	data, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// childProcess returns the runner that starts exe once per run and parses
// the child's #info line and its final result line.
func childProcess(exe string, cfg suiteConfig, stderr io.Writer) childRunner {
	return func(workload string, traced bool) (runResult, runInfo, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe,
			"-workload", workload,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", trace,
			"-out", cfg.outDir)
		if cfg.specPath != "" {
			cmd.Args = append(cmd.Args, "-spec", cfg.specPath)
		}
		cmd.Stderr = stderr
		out, runErr := cmd.Output()
		var run runResult
		var info runInfo
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		for _, line := range lines {
			if rest, ok := bytes.CutPrefix(line, []byte("#info ")); ok {
				if err := json.Unmarshal(rest, &info); err != nil {
					return run, info, fmt.Errorf("parsing #info: %w", err)
				}
			}
		}
		// A run that fails a check still prints its result before exiting 1;
		// the result says so itself (failed > 0).
		if err := json.Unmarshal(lines[len(lines)-1], &run); err != nil || run.Metrics == nil {
			if runErr != nil {
				return run, info, runErr
			}
			return run, info, fmt.Errorf("no result line in child output")
		}
		return run, info, nil
	}
}

// printWorkload prints one `workload metric value unit` row per metric:
// the median over the untraced trials with the range for the end-to-end
// metrics and the per-layer ones -compare judges, the traced run's
// reading for the other per-layer ones. fail_ratio is printed once, over
// all of the workload's runs.
func printWorkload(w io.Writer, sp *spec, name string, wr *workloadResult) {
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == "fail_ratio" {
				continue
			}
			if xs := trialValues(wr, m.Name); len(xs) > 0 {
				lo, hi := minMax(xs)
				fmt.Fprintf(w, "%s %s %.6g %s (min %.6g max %.6g, %d trials)\n", name, m.Name, median(xs), m.Unit, lo, hi, len(xs))
			} else if v, ok := wr.Layers[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", name, m.Name, v, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g ratio (%d failed of %d attempted)\n", name, failRatio(wr), wr.Failed, wr.Attempted)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
