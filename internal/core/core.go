// Package core ties the pipeline together: it exposes the paper's three
// applications as one-call studies (assertion-cost sharing §3.1,
// deterministic bug isolation §3.2, statistical debugging §3.3) and the
// generators for every table and figure in the evaluation.
//
// The flow mirrors the system described in the paper:
//
//	MiniC source ──instrument──▶ sites ──Sample──▶ fast/slow program
//	     │                                             │ (many remote runs)
//	     ▼                                             ▼
//	 baseline                                 counter-vector reports
//	                                                    │
//	                              elimination / logistic regression
package core

import (
	"context"
	"fmt"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/logreg"
	"cbi/internal/analysis/score"
	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/report"
	"cbi/internal/telemetry"
	"cbi/internal/telemetry/trace"
	"cbi/internal/workloads"
)

// ----------------------------------------------------------------------------
// §3.2: deterministic bug isolation on ccrypt

// CcryptStudy is the outcome of the §3.2 experiment.
type CcryptStudy struct {
	Program   *cfg.Program
	DB        *report.DB
	Runs      int
	Crashes   int
	Counts    elim.StrategyCounts
	Survivors []Survivor
}

// Survivor is a predicate retained by the combined elimination.
type Survivor struct {
	Counter int
	Name    string
}

// CcryptStudyConfig parameterizes RunCcryptStudyOpts.
type CcryptStudyConfig struct {
	Runs    int
	Density float64 // 0 = unconditional instrumentation
	Seed    int64
	// Workers is the fleet's concurrency (default runtime.NumCPU();
	// results are deterministic regardless — see workloads.FleetConfig).
	Workers int
	// Submit, when set, additionally routes every fleet report through it
	// — e.g. a collect.Client's SubmitContext, exercising the full HTTP
	// ingest path of a remote collector. The context carries the run's
	// trace span when Tracer is set.
	Submit func(context.Context, *report.Report) error
	// Tracer, when set, records one distributed trace per fleet run
	// (fleet.run → fleet.execute / client.submit → server.*).
	Tracer *trace.Collector
}

// RunCcryptStudy instruments ccrypt with the returns scheme, fuzzes it
// for the given number of runs at the given sampling density, and applies
// the elimination strategies. With density 0 the instrumentation runs
// unconditionally (no sampling transformation).
func RunCcryptStudy(runs int, density float64, seed int64) (*CcryptStudy, error) {
	return RunCcryptStudyOpts(CcryptStudyConfig{Runs: runs, Density: density, Seed: seed})
}

// RunCcryptStudyOpts is RunCcryptStudy with the full configuration
// surface. Each pipeline stage records a telemetry span, so
// telemetry.Default.FormatSpanSummary() after a study shows where the
// wall-clock went.
func RunCcryptStudyOpts(conf CcryptStudyConfig) (*CcryptStudy, error) {
	sampled := conf.Density > 0
	buildSpan := telemetry.StartSpan("study.build")
	built, err := workloads.BuildCcrypt(instrument.SchemeSet{Returns: true}, sampled)
	buildSpan.End()
	if err != nil {
		return nil, err
	}
	effDensity := conf.Density
	if !sampled {
		effDensity = 0
	}
	db, err := workloads.CcryptFleet(built.Program, workloads.FleetConfig{
		Runs: conf.Runs, Density: effDensity, SeedBase: conf.Seed,
		Workers: conf.Workers, Submit: conf.Submit, Tracer: conf.Tracer,
	})
	if err != nil {
		return nil, err
	}
	aggSpan := telemetry.StartSpan("study.aggregate")
	agg := report.NewAggregate("ccrypt", built.Program.NumCounters)
	if err := agg.FromDB(db); err != nil {
		aggSpan.End()
		return nil, err
	}
	aggSpan.End()
	elimSpan := telemetry.StartSpan("study.eliminate")
	spans := siteSpans(built.Program)
	counts := elim.Summarize(agg, spans)
	combined := elim.Intersect(elim.UniversalFalsehood(agg), elim.SuccessfulCounterexample(agg))
	elimSpan.End()
	study := &CcryptStudy{
		Program: built.Program,
		DB:      db,
		Runs:    db.Len(),
		Crashes: len(db.Failures()),
		Counts:  counts,
	}
	for _, c := range elim.Indices(combined) {
		study.Survivors = append(study.Survivors, Survivor{Counter: c, Name: built.Program.PredicateName(c)})
	}
	return study, nil
}

// Fig2Points reproduces Figure 2 on an existing ccrypt study: the mean
// and standard deviation of the surviving candidate count as successful
// runs accumulate, over `trials` random orderings.
func (s *CcryptStudy) Fig2Points(sizes []int, trials int, seed int64) []elim.Point {
	agg := report.NewAggregate("ccrypt", s.Program.NumCounters)
	_ = agg.FromDB(s.DB)
	initial := elim.UniversalFalsehood(agg)
	return elim.Progressive(s.DB.Successes(), initial, sizes, trials, seed)
}

func siteSpans(p *cfg.Program) []elim.SiteSpan {
	spans := make([]elim.SiteSpan, 0, len(p.Sites))
	for _, s := range p.Sites {
		spans = append(spans, elim.SiteSpan{Base: s.CounterBase, Len: s.NumCounters})
	}
	return spans
}

// ----------------------------------------------------------------------------
// §3.3: statistical debugging on bc

// BCStudy is the outcome of the §3.3 experiment.
type BCStudy struct {
	Program      *cfg.Program
	DB           *report.DB
	Runs         int
	Crashes      int
	RawFeatures  int // total counters (the paper's 30,150)
	UsedFeatures int // after discarding always-zero counters (the 2,908)
	Lambda       float64
	Model        *logreg.Model
	TestAccuracy float64
	Top          []RankedPredicate
	// SmokingGunRank is the rank of "indx > a_count" at the buggy line
	// among positive coefficients (the paper reports 240th), or 0 if it
	// received no positive weight.
	SmokingGunRank int
	BuggyLine      int
}

// RankedPredicate is a regression feature with its coefficient.
type RankedPredicate struct {
	Counter int
	Name    string
	Beta    float64
}

// BCStudyConfig parameterizes RunBCStudy.
type BCStudyConfig struct {
	Runs    int
	Density float64 // 0 = unconditional instrumentation
	Seed    int64
	// Workers mirrors CcryptStudyConfig.Workers.
	Workers int
	Lambdas []float64 // cross-validated; default {0.05, 0.1, 0.3, 1.0}
	Epochs  int
	TopK    int
	// Submit and Tracer mirror CcryptStudyConfig: optional report
	// forwarding and per-run distributed tracing.
	Submit func(context.Context, *report.Report) error
	Tracer *trace.Collector
}

// RunBCStudy instruments bc with the scalar-pairs scheme, runs the fuzz
// fleet, trains the ℓ1-regularized logistic regression of §3.3, and
// ranks the crash-predicting predicates.
func RunBCStudy(conf BCStudyConfig) (*BCStudy, error) {
	if len(conf.Lambdas) == 0 {
		conf.Lambdas = []float64{0.05, 0.1, 0.3, 1.0}
	}
	if conf.TopK == 0 {
		conf.TopK = 5
	}
	sampled := conf.Density > 0
	buildSpan := telemetry.StartSpan("study.build")
	built, err := workloads.BuildBC(instrument.SchemeSet{ScalarPairs: true}, sampled)
	buildSpan.End()
	if err != nil {
		return nil, err
	}
	db, err := workloads.BCFleet(built.Program, workloads.FleetConfig{
		Runs: conf.Runs, Density: conf.Density, SeedBase: conf.Seed,
		Workers: conf.Workers, Submit: conf.Submit, Tracer: conf.Tracer,
	})
	if err != nil {
		return nil, err
	}

	// Discard features that are zero across the whole training corpus
	// (elimination by universal falsehood, as §3.3.3 does before training).
	aggSpan := telemetry.StartSpan("study.aggregate")
	agg := report.NewAggregate("bc", built.Program.NumCounters)
	if err := agg.FromDB(db); err != nil {
		aggSpan.End()
		return nil, err
	}
	keep := elim.UniversalFalsehood(agg)
	aggSpan.End()

	regressSpan := telemetry.StartSpan("study.regress")
	trainR, cvR, testR := logreg.Split(db.Reports, 0.62, 0.07, conf.Seed+1)
	tc := logreg.TrainConfig{StepSize: 1e-2, Epochs: conf.Epochs, Seed: conf.Seed + 2, Workers: conf.Workers}
	train := logreg.BuildSparseDataset(trainR, keep)
	cv := train.Project(cvR)
	test := train.Project(testR)
	lambda, model := logreg.CrossValidateSparse(train, cv, conf.Lambdas, tc)
	testAcc := model.AccuracySparse(test)
	regressSpan.End()

	study := &BCStudy{
		Program:      built.Program,
		DB:           db,
		Runs:         db.Len(),
		Crashes:      len(db.Failures()),
		RawFeatures:  built.Program.NumCounters,
		UsedFeatures: elim.Count(keep),
		Lambda:       lambda,
		Model:        model,
		TestAccuracy: testAcc,
		BuggyLine:    workloads.BCBuggyLine(),
	}
	for _, r := range model.TopFeatures(conf.TopK) {
		study.Top = append(study.Top, RankedPredicate{
			Counter: r.Counter,
			Name:    built.Program.PredicateName(r.Counter),
			Beta:    r.Beta,
		})
	}
	if gun := study.smokingGunCounter(); gun >= 0 {
		study.SmokingGunRank = model.Rank(gun)
	}
	return study, nil
}

// smokingGunCounter finds the counter for "indx > a_count" at the buggy
// line, or -1.
func (s *BCStudy) smokingGunCounter() int {
	for _, site := range s.Program.Sites {
		if site.Fn == "more_arrays" && site.Pos.Line == s.BuggyLine &&
			site.Kind == cfg.SiteScalarPair && site.Text == "indx" {
			for i, pn := range site.PredNames {
				if pn == "> a_count" {
					return site.CounterBase + i
				}
			}
		}
	}
	return -1
}

// TopPointAtBug reports how many of the top-k predicates point at the
// buggy line inside more_arrays — the paper's headline qualitative
// result (all top five do).
func (s *BCStudy) TopPointAtBug() int {
	n := 0
	for _, t := range s.Top {
		site := s.Program.SiteForCounter(t.Counter)
		if site != nil && site.Fn == "more_arrays" && site.Pos.Line == s.BuggyLine {
			n++
		}
	}
	return n
}

// TopPointAtFunction reports how many of the top-k predicates point
// anywhere inside more_arrays. The paper observes "a high degree of
// redundancy among many instrumentation sites within more_arrays()":
// several features have equivalent predictive power, so depending on the
// sampling density the model may spread weight across the function's
// lines rather than concentrating on the zeroing loop.
func (s *BCStudy) TopPointAtFunction() int {
	n := 0
	for _, t := range s.Top {
		site := s.Program.SiteForCounter(t.Counter)
		if site != nil && site.Fn == "more_arrays" {
			n++
		}
	}
	return n
}

// ----------------------------------------------------------------------------
// Importance ranking (the 2005 follow-up scoring, package analysis/score)

// ScoredPredicate is a predicate with its Increase/Importance scores.
type ScoredPredicate struct {
	Counter    int
	Name       string
	Increase   float64
	Importance float64
}

// ImportanceRanking ranks a study's predicates by the follow-up
// Importance score. It works for any report database over a program.
func ImportanceRanking(prog *cfg.Program, db *report.DB, k int) []ScoredPredicate {
	defer telemetry.StartSpan("study.rank").End()
	spans := make([]score.SiteSpan, 0, len(prog.Sites))
	for _, s := range prog.Sites {
		spans = append(spans, score.SiteSpan{Base: s.CounterBase, Len: s.NumCounters})
	}
	var out []ScoredPredicate
	for _, p := range score.Top(score.Score(db, spans), k) {
		out = append(out, ScoredPredicate{
			Counter:    p.Counter,
			Name:       prog.PredicateName(p.Counter),
			Increase:   p.Increase,
			Importance: p.Importance,
		})
	}
	return out
}

// ImportanceRanking ranks the ccrypt study's predicates.
func (s *CcryptStudy) ImportanceRanking(k int) []ScoredPredicate {
	return ImportanceRanking(s.Program, s.DB, k)
}

// ImportanceRanking ranks the bc study's predicates.
func (s *BCStudy) ImportanceRanking(k int) []ScoredPredicate {
	return ImportanceRanking(s.Program, s.DB, k)
}

// ----------------------------------------------------------------------------
// Formatting helpers shared by cbi-bench and the examples.

// FormatSurvivors renders the ccrypt survivors one per line.
func FormatSurvivors(ss []Survivor) string {
	out := ""
	for i, s := range ss {
		out += fmt.Sprintf("%2d. %s\n", i+1, s.Name)
	}
	return out
}

// FormatTop renders ranked predicates one per line with coefficients.
func FormatTop(ts []RankedPredicate) string {
	out := ""
	for i, t := range ts {
		out += fmt.Sprintf("%2d. beta=%.4f  %s\n", i+1, t.Beta, t.Name)
	}
	return out
}
