package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// Verdicts of one compared (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per (workload, metric) for the end-to-end
// metrics and the per-layer ones that carry a bound (layerBounds), with
// both medians, ranges, the change and a verdict, then the other per-layer
// changes for orientation. It returns non-zero on any `worse` row or a higher
// fail ratio, and refuses files measured on different inputs.
func compareFiles(sp *spec, oldPath, newPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return fail(err)
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return fail(err)
	}
	if err := sameInputs(oldF.Env, newF.Env); err != nil {
		return fail(err)
	}
	return compareResults(sp, oldF, newF, stdout)
}

// sameInputs demands that two result files measured the same work: one
// seed, one window, equal sizes, identical generated pools.
func sameInputs(a, b envelope) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ (%d vs %d)", a.Seed, b.Seed)
	case a.Seconds != b.Seconds:
		return fmt.Errorf("windows differ (%g s vs %g s)", a.Seconds, b.Seconds)
	case !reflect.DeepEqual(a.Sizes, b.Sizes):
		return fmt.Errorf("workload sizes differ")
	case !reflect.DeepEqual(a.Pools, b.Pools):
		return fmt.Errorf("generated input pools differ (SHA-256 mismatch)")
	}
	return nil
}

// layerBounds gives a verdict to the metrics the issue lists as end-to-end
// but that exist on some workloads only. The driver's contract wants every
// end-to-end metric non-zero on every workload, so BENCHMARK.json names
// these in its per-layer list, whose entries carry no bound; the bound
// lives here. The suite reads them in every untraced trial, so they are
// judged like the end-to-end ones: median of three full windows.
//
// The overhead ratios are taken inside one run, numerator and denominator
// a fraction of a second apart, so the machine's drift cancels and they
// keep the issue's 5 %. The others are times and carry the same 25 % as
// the end-to-end times (README, "Bounds").
var layerBounds = map[string]float64{
	"overhead_sampled":      0.05,
	"overhead_sampled_1000": 0.05,
	"overhead_uncond":       0.05,
	"build_ms":              0.25,
	"ack_p50_ms":            0.25,
	"ack_p99_ms":            0.25,
	"fresh_p50_ms":          0.25,
	"fresh_p99_ms":          0.25,
	"read_p50_ms":           0.25,
	"read_p95_ms":           0.25,
}

func compareResults(sp *spec, oldF, newF *resultFile, w io.Writer) int {
	bad := false
	fmt.Fprintf(w, "%-13s %-21s %13s %27s %13s %27s %8s  %s\n",
		"workload", "metric", "old median", "old [min, max]", "new median", "new [min, max]", "change", "verdict")
	for _, wl := range sp.Workloads {
		o, n := oldF.Workloads[wl.Name], newF.Workloads[wl.Name]
		if o == nil || n == nil {
			fmt.Fprintf(w, "%-13s missing from one file\n", wl.Name)
			bad = true
			continue
		}
		row := func(m metricSpec) {
			ox, nx := trialValues(o, m.Name), trialValues(n, m.Name)
			if len(ox) == 0 || len(nx) == 0 {
				fmt.Fprintf(w, "%-13s %-21s missing from one file\n", wl.Name, m.Name)
				bad = true
				return
			}
			v, change := judge(m, ox, nx)
			if v == verdictWorse {
				bad = true
			}
			olo, ohi := minMax(ox)
			nlo, nhi := minMax(nx)
			fmt.Fprintf(w, "%-13s %-21s %13.6g [%11.6g, %11.6g] %13.6g [%11.6g, %11.6g] %+7.1f%%  %s\n",
				wl.Name, m.Name, median(ox), olo, ohi, median(nx), nlo, nhi, 100*change, v)
		}
		for _, m := range sp.EndToEnd {
			row(m)
		}
		for _, m := range sp.PerLayer {
			bound, judged := layerBounds[m.Name]
			// A workload that bypasses the metric's layer has no reading.
			if judged && len(trialValues(o, m.Name))+len(trialValues(n, m.Name)) > 0 {
				m.Bound = bound
				row(m)
			}
		}
		of, nf := failRatio(o), failRatio(n)
		v := verdictSame
		if nf > of {
			v, bad = verdictWorse, true
		}
		fmt.Fprintf(w, "%-13s %-21s %13.6g %27s %13.6g %27s %8s  %s\n", wl.Name, "fail_ratio", of, "", nf, "", "", v)
	}

	fmt.Fprintf(w, "\nother per-layer metrics (one traced run each; no bound, no verdict):\n")
	for _, wl := range sp.Workloads {
		o, n := oldF.Workloads[wl.Name], newF.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		var names []string
		for name := range o.Layers {
			if _, judged := layerBounds[name]; judged {
				continue
			}
			if _, ok := n.Layers[name]; ok && (o.Layers[name] != 0 || n.Layers[name] != 0) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ov, nv := o.Layers[name], n.Layers[name]
			change := "n/a"
			if ov != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
			}
			fmt.Fprintf(w, "%-13s %-30s %13.6g %13.6g %8s\n", wl.Name, name, ov, nv, change)
		}
	}
	if bad {
		return 1
	}
	return 0
}

func trialValues(wr *workloadResult, metric string) []float64 {
	var xs []float64
	for _, t := range wr.Trials {
		if v, ok := t[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func failRatio(wr *workloadResult) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

// judge compares two sets of trials of one metric. change is the move of
// the median as a share of the old median, signed so that positive is
// worse. The verdict is `worse` when that exceeds the bound; `better`
// when every new trial beats every old one; `unresolved` when either
// side's own range is wider than the bound, so a move of the size the
// bound polices could hide in the spread; otherwise `same`.
func judge(m metricSpec, oldX, newX []float64) (verdict string, change float64) {
	om, nm := median(oldX), median(newX)
	change = (nm - om) / om
	if m.Better == "higher" {
		change = -change
	}
	olo, ohi := minMax(oldX)
	nlo, nhi := minMax(newX)
	allBetter := nhi < olo
	if m.Better == "higher" {
		allBetter = nlo > ohi
	}
	spread := (ohi - olo) / om
	if s := (nhi - nlo) / nm; s > spread {
		spread = s
	}
	switch {
	case change > m.Bound:
		return verdictWorse, change
	case allBetter:
		return verdictBetter, change
	case spread > m.Bound:
		return verdictUnresolved, change
	}
	return verdictSame, change
}
