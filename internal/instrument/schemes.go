// Package instrument implements the paper's instrumentation schemes and
// its sampling transformation.
//
// Schemes decide what to observe:
//
//   - Returns (§3.2.1): the sign of every scalar function return value.
//   - ScalarPairs (§3.3.1): each just-assigned scalar compared against
//     every other same-typed variable in scope, and pointers against null.
//   - Bounds (§3.1): CCured-style null/bounds checks before heap accesses.
//   - Asserts (§3.1): user assert() calls become sampled checks.
//   - Branches: branch-direction predicates (a later-CBI extension).
//
// The transformation (transform.go) decides how often to observe: it
// clones each function into an instrumentation-free fast path and a fully
// guarded slow path, joined by geometric-countdown threshold checks.
package instrument

import (
	"fmt"
	"strings"

	"cbi/internal/cfg"
	"cbi/internal/minic"
)

// SchemeSet selects which instrumentation schemes are active.
type SchemeSet struct {
	Returns     bool
	ScalarPairs bool
	Branches    bool
	Bounds      bool
	Asserts     bool
}

// ParseSchemes parses a comma-separated scheme list such as "bounds" or
// "returns,scalar-pairs": "all" enables every scheme, "" and "none" add
// none. The cbi-instrument and cbi-run -scheme flags both use it.
func ParseSchemes(s string) (SchemeSet, error) {
	var set SchemeSet
	for _, name := range strings.Split(s, ",") {
		switch name {
		case "returns":
			set.Returns = true
		case "scalar-pairs":
			set.ScalarPairs = true
		case "branches":
			set.Branches = true
		case "bounds":
			set.Bounds = true
		case "asserts":
			set.Asserts = true
		case "all":
			set = SchemeSet{Returns: true, ScalarPairs: true, Branches: true, Bounds: true, Asserts: true}
		case "", "none":
		default:
			return set, fmt.Errorf("unknown scheme %q", name)
		}
	}
	return set, nil
}

// Schemes is a cfg.Instrumenter that applies a SchemeSet, optionally
// restricted to functions accepted by Filter (the paper's statically
// selective sampling, §3.1.2: instrumenting one function, one module, or
// one object file at a time).
type Schemes struct {
	Set SchemeSet
	// Filter restricts instrumentation to functions it accepts; nil
	// accepts every function.
	Filter func(funcName string) bool
	// PartCount/PartIndex split the site population across executables
	// (§3.1.2: "one can easily create multiple executables where each
	// contains a subset of the complete instrumentation"). With
	// PartCount = n, build n programs with PartIndex 0..n-1; every site
	// of the full build appears in exactly one of them. Zero disables
	// partitioning.
	PartCount int
	PartIndex int
	// KeepSite, when set, admits only sites it accepts. Site identity is
	// stable across rebuilds of the same file (function, position, text),
	// so adaptive deployments can rebuild with only the sites that
	// earlier rounds left as candidates (§3.1.2: "sites can be added or
	// removed over time as debugging needs and intermediate results
	// warrant").
	KeepSite func(*cfg.Site) bool

	siteSeq int // deterministic site counter for partitioning
}

var _ cfg.Instrumenter = (*Schemes)(nil)

func (s *Schemes) active(fn *cfg.Func) bool {
	return s.Filter == nil || s.Filter(fn.Name)
}

// admit applies site partitioning and the KeepSite filter: each candidate
// site is deterministically assigned to one partition by its creation
// sequence number, then filtered.
func (s *Schemes) admit(sites []*cfg.Site) []*cfg.Site {
	if s.PartCount <= 1 && s.KeepSite == nil {
		return sites
	}
	var kept []*cfg.Site
	for _, site := range sites {
		inPart := s.PartCount <= 1 || s.siteSeq%s.PartCount == s.PartIndex
		s.siteSeq++
		if inPart && (s.KeepSite == nil || s.KeepSite(site)) {
			kept = append(kept, site)
		}
	}
	return kept
}

// NeedsReturnValues reports whether discarded call results must be
// materialized for the returns scheme.
func (s *Schemes) NeedsReturnValues() bool { return s.Set.Returns }

// AfterCall implements the returns scheme: one site with three counters
// for negative, zero, and positive return values (§3.2.1).
func (s *Schemes) AfterCall(fn *cfg.Func, callee string, ret *minic.Type, dst *cfg.Var, pos minic.Pos) []*cfg.Site {
	if !s.Set.Returns || !s.active(fn) {
		return nil
	}
	return s.admit([]*cfg.Site{{
		Kind:        cfg.SiteReturns,
		Fn:          fn.Name,
		Pos:         pos,
		Text:        callee + "() return value",
		Args:        []cfg.Expr{&cfg.VarUse{V: dst}},
		NumCounters: 3,
		PredNames:   []string{"< 0", "== 0", "> 0"},
	}})
}

// AfterAssign implements the scalar-pairs scheme (§3.3.1): the updated
// variable is compared to every other same-typed variable in scope (one
// site with three counters per pair) and, for pointers, to null (one site
// with two counters).
func (s *Schemes) AfterAssign(fn *cfg.Func, dst *cfg.Var, scope []*cfg.Var, pos minic.Pos) []*cfg.Site {
	if !s.Set.ScalarPairs || !s.active(fn) {
		return nil
	}
	var sites []*cfg.Site
	for _, b := range scope {
		if b == dst || b.Name == dst.Name || !b.Type.Equal(dst.Type) {
			continue
		}
		sites = append(sites, &cfg.Site{
			Kind:        cfg.SiteScalarPair,
			Fn:          fn.Name,
			Pos:         pos,
			Text:        dst.Name,
			Args:        []cfg.Expr{&cfg.VarUse{V: dst}, &cfg.VarUse{V: b}},
			NumCounters: 3,
			PredNames:   []string{"< " + b.Name, "== " + b.Name, "> " + b.Name},
		})
	}
	if dst.Type.IsPointer() {
		sites = append(sites, &cfg.Site{
			Kind:        cfg.SiteNullCheck,
			Fn:          fn.Name,
			Pos:         pos,
			Text:        dst.Name,
			Args:        []cfg.Expr{&cfg.VarUse{V: dst}},
			NumCounters: 2,
			PredNames:   []string{"== null", "!= null"},
		})
	}
	return s.admit(sites)
}

// AtBranch implements the branches scheme: two counters recording how
// often the condition was false and true.
func (s *Schemes) AtBranch(fn *cfg.Func, cond cfg.Expr, pos minic.Pos) []*cfg.Site {
	if !s.Set.Branches || !s.active(fn) {
		return nil
	}
	return s.admit([]*cfg.Site{{
		Kind:        cfg.SiteBranch,
		Fn:          fn.Name,
		Pos:         pos,
		Text:        "branch " + cfg.FormatExpr(cond),
		Args:        []cfg.Expr{cond},
		NumCounters: 2,
		PredNames:   []string{"is false", "is true"},
	}})
}

// AtMemAccess implements the bounds scheme (§3.1): a CCured-style dynamic
// memory-safety check before each heap load or store, counting observed
// null pointers and out-of-bounds indices.
func (s *Schemes) AtMemAccess(fn *cfg.Func, ptr, idx cfg.Expr, pos minic.Pos) []*cfg.Site {
	if !s.Set.Bounds || !s.active(fn) {
		return nil
	}
	return s.admit([]*cfg.Site{{
		Kind:        cfg.SiteBounds,
		Fn:          fn.Name,
		Pos:         pos,
		Text:        fmt.Sprintf("check %s[%s]", cfg.FormatExpr(ptr), cfg.FormatExpr(idx)),
		Args:        []cfg.Expr{ptr, idx},
		NumCounters: 2,
		PredNames:   []string{"pointer is null", "index out of bounds"},
	}})
}

// AtAssert implements the asserts scheme (§3.1): each user assert()
// becomes a sampled site; when sampled and violated, the run aborts just
// as the eager assertion would.
func (s *Schemes) AtAssert(fn *cfg.Func, cond cfg.Expr, pos minic.Pos) []*cfg.Site {
	if !s.Set.Asserts || !s.active(fn) {
		return nil
	}
	return s.admit([]*cfg.Site{{
		Kind:        cfg.SiteAssert,
		Fn:          fn.Name,
		Pos:         pos,
		Text:        "assert " + cfg.FormatExpr(cond),
		Args:        []cfg.Expr{cond},
		NumCounters: 2,
		PredNames:   []string{"held", "violated"},
	}})
}

// Build parses nothing; it lowers an already-parsed file with the given
// schemes. It is the main entry point for producing an instrumented
// (unconditional) program; apply Sample to add the sampling
// transformation.
func Build(file *minic.File, builtins map[string]minic.BuiltinSig, set SchemeSet) (*cfg.Program, error) {
	return cfg.Build(file, builtins, &Schemes{Set: set})
}

// BuildFiltered is Build restricted to functions accepted by filter
// (statically selective sampling, §3.1.2).
func BuildFiltered(file *minic.File, builtins map[string]minic.BuiltinSig, set SchemeSet, filter func(string) bool) (*cfg.Program, error) {
	return cfg.Build(file, builtins, &Schemes{Set: set, Filter: filter})
}

// BuildBaseline lowers the file with no instrumentation at all: the
// "dynamic checks removed" baseline of Table 2.
func BuildBaseline(file *minic.File, builtins map[string]minic.BuiltinSig) (*cfg.Program, error) {
	return cfg.Build(file, builtins, nil)
}
