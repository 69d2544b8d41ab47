package monitor

import (
	"encoding/json"
	"fmt"
	"os"

	"cbi/internal/analysis/score"
	"cbi/internal/cfg"
)

// Manifest is the site layout a standalone collector needs to score
// predicates with full context: the counter space, each site's counter
// span, and human-readable predicate names. `cbi-analyze -sites-out`
// writes one after instrumenting a study program; `cbi-collect -sites`
// loads it. Without a manifest the monitor still ranks (Context(P)
// degrades to 0, exactly like score.Score with nil spans), but with one
// the live rankings match an offline in-process analysis bit for bit.
type Manifest struct {
	Program     string `json:"program"`
	NumCounters int    `json:"num_counters"`
	// Sites lists [base, len] counter spans, one per instrumentation site.
	Sites      [][2]int `json:"sites"`
	Predicates []string `json:"predicates,omitempty"`
}

// ManifestOf captures a program's site layout.
func ManifestOf(name string, prog *cfg.Program) *Manifest {
	m := &Manifest{
		Program:     name,
		NumCounters: prog.NumCounters,
		Sites:       make([][2]int, 0, len(prog.Sites)),
		Predicates:  make([]string, prog.NumCounters),
	}
	for _, s := range prog.Sites {
		m.Sites = append(m.Sites, [2]int{s.CounterBase, s.NumCounters})
	}
	for c := 0; c < prog.NumCounters; c++ {
		m.Predicates[c] = prog.PredicateName(c)
	}
	return m
}

// LoadManifest reads a manifest JSON file.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("monitor: parse manifest %s: %w", path, err)
	}
	if m.NumCounters <= 0 {
		return nil, fmt.Errorf("monitor: manifest %s: num_counters must be positive", path)
	}
	return &m, nil
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Spans converts the site list to score.SiteSpan form.
func (m *Manifest) Spans() []score.SiteSpan {
	spans := make([]score.SiteSpan, len(m.Sites))
	for i, s := range m.Sites {
		spans[i] = score.SiteSpan{Base: s[0], Len: s[1]}
	}
	return spans
}

// PredicateName returns the recorded name of a counter, falling back to
// "counter N" when the manifest carries no names.
func (m *Manifest) PredicateName(c int) string {
	if c >= 0 && c < len(m.Predicates) && m.Predicates[c] != "" {
		return m.Predicates[c]
	}
	return fmt.Sprintf("counter %d", c)
}
