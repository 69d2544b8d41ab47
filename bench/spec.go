package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median an end-to-end metric may worsen by;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// spec mirrors BENCHMARK.json, the single source of metric names, units,
// directions and bounds: the workloads name metrics as string literals
// and emit refuses any name the file does not list.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json. An empty path searches the working
// directory and its parent, which covers `go run -C bench .` and
// `go test` (both run in bench/) as well as a binary started at the
// repository root.
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var data []byte
	var err error
	for _, p := range candidates {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !metricNameRE.MatchString(m.Name) {
				return nil, fmt.Errorf("BENCHMARK.json: bad metric name %q", m.Name)
			}
			if seen[m.Name] {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("BENCHMARK.json: metric %q: better is %q", m.Name, m.Better)
			}
		}
	}
	return &s, nil
}

func (s *spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
