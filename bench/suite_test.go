package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuiteExitStatus: the suite must fail exactly when a single run
// would — on failed operations as much as on failed checks, and on a child
// that produced no result.
func TestSuiteExitStatus(t *testing.T) {
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
		PerLayer: []metricSpec{
			{Name: "layer.x_us", Unit: "us", Better: "lower"},
			{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
		},
	}
	fake := func(failedOps int, err error) childRunner {
		return func(workload string, traced bool) (runResult, runInfo, error) {
			if err != nil {
				return runResult{}, runInfo{}, err
			}
			res := runResult{Correct: failedOps == 0, Attempted: 100, Failed: failedOps}
			if traced {
				res.Metrics = map[string]value{"layer.x_us": {5, "us"}, "fail_ratio": {float64(failedOps) / 100, "ratio"}}
			} else {
				res.Metrics = map[string]value{"op_ms": {1.5, "ms"}}
			}
			return res, runInfo{}, nil
		}
	}
	cases := []struct {
		name      string
		failedOps int
		err       error
		want      int
	}{
		{"clean", 0, nil, 0},
		// Shed submits, failed reads, table2_vm's repeat mismatches: failed
		// operations that no named check reports.
		{"failed operations, every check passing", 2, nil, 1},
		{"child without a result", 0, errors.New("exit status 1"), 1},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		got := runSuite(sp, suiteConfig{seed: 1, seconds: 1, outDir: dir}, fake(tc.failedOps, tc.err), &out, &errOut)
		if got != tc.want {
			t.Errorf("%s: suite exited %d, want %d\n%s%s", tc.name, got, tc.want, out.String(), errOut.String())
		}
		if _, err := os.Stat(filepath.Join(dir, "results.json")); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if n := strings.Count(out.String(), "fail_ratio"); n != 1 {
			t.Errorf("%s: fail_ratio printed %d times, want once:\n%s", tc.name, n, out.String())
		}
	}
}
