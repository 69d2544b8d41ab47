package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cbi/internal/telemetry/trace"
)

// setupRepeats is how many times an untraced run sets the workload up
// (once at test scale); setup_s is the median, so one slow start does not
// read as a regression.
const setupRepeats = 3

// instance is one set-up workload: programs built, pools generated,
// servers started and warmed. measure runs the timed window once (size
// scales it: a traced run measures two half windows); probes times single
// layers (traced runs only) and may add to the state verify then checks;
// verify runs the correctness checks off the clock; close stops every
// server and goroutine and removes scratch files.
type instance interface {
	measure(c *runCtx, size float64) (*pass, error)
	probes(c *runCtx, p *pass)
	verify(c *runCtx)
	close()
}

// pass is what one measured window yields.
type pass struct {
	wall time.Duration // the workload's end-to-end clock
	ops  int           // operations completed inside it
	opMS float64       // median client-observed latency of one operation
	work float64       // work_per_s, in the workload's own unit of work
	proc procDelta     // process CPU, allocation and GC over the window
	// cpuOps is the operation count proc's CPU is spread over, when the
	// CPU window covers only part of the pass (0 = ops).
	cpuOps int
	layer  map[string]float64
	// spanLayer holds the per-layer metrics derived from trace spans; a
	// traced run overlays them on the untraced pass's layer metrics.
	spanLayer map[string]float64
}

func newPass() *pass {
	return &pass{layer: map[string]float64{}, spanLayer: map[string]float64{}}
}

// workloads maps a name to its set-up. A non-nil collector switches the
// workload's tracing on for its whole life (the servers read their Tracer
// field from handler goroutines, so it is set before they start).
var workloads = map[string]func(c *runCtx, tr *trace.Collector) (instance, error){
	"fleet_ccrypt": setupFleetCcrypt,
	"ingest_bc":    setupIngestBC,
	"table2_vm":    setupTable2VM,
	"analyze_bc":   setupAnalyzeBC,
}

// runWorkload drives one run. Untraced: set up setupRepeats times, measure
// one full window, read the memory high-water mark, then verify. Traced:
// one half window untraced (the load-dependent per-layer numbers and the
// base for trace_overhead), one half window traced (the span-derived
// numbers), then the single-layer probes.
func runWorkload(c *runCtx) error {
	setup := workloads[c.workload]
	if setup == nil {
		return fmt.Errorf("workload %q has no implementation", c.workload)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	if !c.traced {
		var inst instance
		var setups []float64
		for i := 0; i < c.fixed(setupRepeats, 1); i++ {
			if inst != nil {
				inst.close()
			}
			t0 := time.Now()
			var err error
			if inst, err = setup(c, nil); err != nil {
				return fmt.Errorf("%s setup: %w", c.workload, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer inst.close()
		p, err := inst.measure(c, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", c.workload, err)
		}
		rss := peakRSSMB()
		inst.verify(c)
		c.set("setup_s", median(setups))
		c.set("work_per_s", p.work)
		c.set("op_ms", p.opMS)
		cpuOps := p.cpuOps
		if cpuOps == 0 {
			cpuOps = p.ops
		}
		c.set("cpu_ms_per_op", p.proc.cpuSeconds*1e3/float64(cpuOps))
		c.set("peak_rss_mb", rss)
		c.info.Layers = map[string]float64{}
		for name := range layerBounds {
			// A tail a failed operation pushed to +Inf is left out: the run
			// fails on the operation itself.
			if v, ok := p.layer[name]; ok && !math.IsInf(v, 0) {
				c.info.Layers[name] = v
			}
		}
		return nil
	}

	base, err := setup(c, nil)
	if err != nil {
		return fmt.Errorf("%s setup: %w", c.workload, err)
	}
	// The identity checks run once, on the traced instance below; this
	// pass still counts its failed operations.
	pa, err := base.measure(c, 0.5)
	base.close()
	if err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}

	tr := trace.NewCollector()
	inst, err := setup(c, tr)
	if err != nil {
		return fmt.Errorf("%s setup: %w", c.workload, err)
	}
	defer inst.close()
	pb, err := inst.measure(c, 0.5)
	if err != nil {
		return fmt.Errorf("%s (traced): %w", c.workload, err)
	}
	inst.probes(c, pb)
	inst.verify(c)

	c.setAll(pa.layer)
	c.setAll(pb.spanLayer)
	pa.proc.report(c, pa.ops)
	c.set("telemetry.spans", float64(tr.Len()))
	c.set("telemetry.trace_overhead",
		(pb.wall.Seconds()/float64(pb.ops))/(pa.wall.Seconds()/float64(pa.ops)))
	c.set("fail_ratio", float64(c.failed)/float64(c.attempted))
	if err := tr.WriteFile(filepath.Join(c.outDir, c.workload+".trace.json")); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// ----------------------------------------------------------------------------
// Process accounting

// procSample is a point reading of the process's cumulative costs.
type procSample struct {
	at  time.Time
	cpu float64 // user+sys seconds
	ms  runtime.MemStats
}

func sampleProc() procSample {
	var s procSample
	runtime.ReadMemStats(&s.ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	s.at = time.Now()
	return s
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// procDelta is the difference of two samples around a measured window.
type procDelta struct {
	wallSeconds float64
	cpuSeconds  float64
	allocBytes  float64
	allocs      float64
	gcCycles    float64
	gcPauseMS   float64
	heapSysMB   float64
}

func (a procSample) until(b procSample) procDelta {
	return procDelta{
		wallSeconds: b.at.Sub(a.at).Seconds(),
		cpuSeconds:  b.cpu - a.cpu,
		allocBytes:  float64(b.ms.TotalAlloc - a.ms.TotalAlloc),
		allocs:      float64(b.ms.Mallocs - a.ms.Mallocs),
		gcCycles:    float64(b.ms.NumGC - a.ms.NumGC),
		gcPauseMS:   float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e6,
		heapSysMB:   float64(b.ms.HeapSys) / (1 << 20),
	}
}

func (d procDelta) report(c *runCtx, ops int) {
	c.set("proc.cpu_s", d.cpuSeconds)
	c.set("proc.cpu_util", d.cpuSeconds/d.wallSeconds/float64(runtime.GOMAXPROCS(0)))
	c.set("proc.alloc_bytes_per_op", d.allocBytes/float64(ops))
	c.set("proc.allocs_per_op", d.allocs/float64(ops))
	c.set("proc.gc_cycles", d.gcCycles)
	c.set("proc.gc_pause_ms", d.gcPauseMS)
	c.set("proc.heap_peak_mb", d.heapSysMB)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM). Each run is
// its own process, so the mark belongs to this workload alone.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	// No procfs: fall back to getrusage's maximum RSS (kilobytes on Linux).
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// ----------------------------------------------------------------------------
// Statistics

// inf marks a failed operation's latency: it misses every limit.
var inf = math.Inf(1)

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (nearest rank) of xs, which it
// does not modify. An infinite sample — a failed operation — sorts last,
// so failures push the tail up instead of vanishing from it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
