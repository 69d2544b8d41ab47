package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/logreg"
	"cbi/internal/analysis/score"
	"cbi/internal/instrument"
	"cbi/internal/report"
	"cbi/internal/telemetry/trace"
	wl "cbi/internal/workloads"
)

// Sizes of analyze_bc: one stored fleet, analysed repeatedly. A rep takes
// about 1.4 s on the reference machine, so the default window holds 7.
const (
	analyzeRuns          = 4000
	analyzeDensity       = 1.0 / 10
	analyzeRepsPerSecond = 0.7
	analyzeEpochs        = 30
	analyzeWorkers       = 2
	analyzeTopK          = 10
	// analyzePlantedMinRuns: below this many runs the regression is too
	// thin to be held to the planted more_arrays bug.
	analyzePlantedMinRuns = 2000
)

var analyzeLambdas = []float64{0.05, 0.1, 0.3, 1}

// analyzeBC is the developer's batch job of §3.3: a stored report file in,
// ranked predicates out. interp and collect do nothing inside the window.
type analyzeBC struct {
	built *wl.Built
	dir   string
	path  string
	spans []score.SiteSpan
	// elimSpans is spans in package elim's own (identical) span type.
	elimSpans []elim.SiteSpan
	tracer    *trace.Collector
	last      *verdict
}

// verdict is what one analysis produced.
type verdict struct {
	db        *report.DB
	keep      []bool
	train, cv []*report.Report
	survivors elim.StrategyCounts
	rows, nnz int
	lambda    float64
	model     *logreg.Model
	accuracy  float64
	topModel  []logreg.Ranked
	topScore  []score.Predicate
}

func setupAnalyzeBC(c *runCtx, tr *trace.Collector) (instance, error) {
	built, err := wl.BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
	if err != nil {
		return nil, err
	}
	runs := c.fixed(analyzeRuns, 300)
	db, err := wl.BCFleet(built.Program, wl.FleetConfig{
		Runs: runs, Density: analyzeDensity, SeedBase: c.seed * 1_000_003, Workers: 2,
	})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.outDir, "analyze-")
	if err != nil {
		return nil, err
	}
	a := &analyzeBC{built: built, dir: dir, path: filepath.Join(dir, "bc.cbr"),
		spans: siteSpans(built.Program), tracer: tr}
	for _, s := range a.spans {
		a.elimSpans = append(a.elimSpans, elim.SiteSpan(s))
	}
	if err := db.WriteFile(a.path); err != nil {
		a.close()
		return nil, err
	}
	c.info.Sizes["analyze_bc.runs"] = float64(runs)
	// One analysis off the clock: page cache, allocator, lazy state.
	if _, err := a.analyze(nil); err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// analyze is the measured operation: stored file -> elimination counts
// -> cross-validated sparse model -> importance ranking -> top 10. Each
// stage runs under a span named for its layer when tracing is on.
func (a *analyzeBC) analyze(root *trace.Span) (*verdict, error) {
	v := &verdict{}
	stage := func(name string, f func()) {
		sp := root.StartChild(name)
		f()
		sp.End()
	}
	var err error
	stage("report.load", func() {
		v.db, err = report.LoadFile(a.path, "bc", a.built.Program.NumCounters)
	})
	if err != nil {
		return nil, err
	}
	agg := report.NewAggregate("bc", v.db.NumCounters)
	stage("report.aggregate", func() { err = agg.FromDB(v.db) })
	if err != nil {
		return nil, err
	}
	stage("elim.summarize", func() {
		v.survivors = elim.Summarize(agg, a.elimSpans)
		v.keep = elim.UniversalFalsehood(agg)
	})
	stage("logreg.split", func() { v.train, v.cv, _ = logreg.Split(v.db.Reports, 0.62, 0.07, 1) })
	var train, cv *logreg.SparseDataset
	stage("logreg.build", func() {
		train = logreg.BuildSparseDataset(v.train, v.keep)
		cv = train.Project(v.cv)
	})
	v.rows, v.nnz = train.Rows(), train.NNZ()
	stage("logreg.cv", func() {
		v.lambda, v.model = logreg.CrossValidateSparse(train, cv, analyzeLambdas, a.trainConfig(analyzeWorkers))
		v.accuracy = v.model.AccuracySparse(cv)
	})
	var preds []score.Predicate
	stage("score.score", func() { preds = score.Score(v.db, a.spans) })
	stage("score.rank", func() {
		v.topScore = score.Rank(preds)
		if len(v.topScore) > analyzeTopK {
			v.topScore = v.topScore[:analyzeTopK]
		}
		v.topModel = v.model.TopFeatures(analyzeTopK)
	})
	return v, nil
}

func (a *analyzeBC) trainConfig(workers int) logreg.TrainConfig {
	return logreg.TrainConfig{StepSize: 1e-2, Epochs: analyzeEpochs, Seed: 2, Workers: workers}
}

func (a *analyzeBC) measure(c *runCtx, size float64) (*pass, error) {
	reps := c.scaled(analyzeRepsPerSecond*size, 2)
	c.info.Sizes["analyze_bc.reps"] = float64(reps)
	spanStart := a.tracer.Len()
	var secs []float64
	p0 := sampleProc()
	for i := 0; i < reps; i++ {
		// The analysis is a batch job, one process per verdict: every
		// repetition starts from a collected heap, as that process would,
		// which also keeps the memory high-water mark one analysis's own.
		a.last = nil
		runtime.GC()
		root := a.tracer.StartSpan("analyze.rep")
		t0 := time.Now()
		v, err := a.analyze(root)
		secs = append(secs, time.Since(t0).Seconds())
		root.End()
		if err != nil {
			return nil, err
		}
		a.last = v
	}
	p1 := sampleProc()
	c.ops(reps, 0)

	p := newPass()
	p.wall = p1.at.Sub(p0.at)
	p.ops = reps
	// Work is fleet runs taken from file to verdict per second.
	p.work = float64(reps*a.last.db.Len()) / p.wall.Seconds()
	p.opMS = median(secs) * 1e3
	p.proc = p0.until(p1)

	v := a.last
	m := p.layer
	m["elim.survivors"] = float64(v.survivors.UFandSC)
	m["logreg.rows"] = float64(v.rows)
	m["logreg.nnz"] = float64(v.nnz)
	m["logreg.features"] = float64(elim.Count(v.keep))
	m["logreg.model_nonzeros"] = float64(v.model.NonzeroCount())
	m["logreg.cv_accuracy"] = v.accuracy

	if a.tracer != nil {
		st := analyzeSpans(a.tracer.Records()[spanStart:])
		sm := p.spanLayer
		perRep := func(name string) float64 { return ms(st.total[name]) / float64(reps) }
		sm["report.load_ms"] = perRep("report.load")
		sm["elim.summarize_ms"] = perRep("elim.summarize")
		sm["logreg.split_ms"] = perRep("logreg.split")
		sm["logreg.build_ms"] = perRep("logreg.build")
		sm["logreg.cv_ms"] = perRep("logreg.cv")
		sm["score.score_ms"] = perRep("score.score")
		sm["score.rank_ms"] = perRep("score.rank")
	}
	return p, nil
}

func (a *analyzeBC) probes(c *runCtx, p *pass) {
	m := p.spanLayer
	v := a.last
	src := source{name: "bc", text: wl.BCSource, schemes: instrument.SchemeSet{ScalarPairs: true}}
	if err := buildLayers(m, []source{src}, 20); err != nil {
		c.check("analyze_bc.probe_build", false, err.Error())
	}
	reportLayers(m, v.db.Reports, v.db.NumCounters, a.spans)

	train := logreg.BuildSparseDataset(v.train, v.keep)
	tc := a.trainConfig(1)
	tc.Lambda = 0.3
	t0 := time.Now()
	logreg.TrainSparse(train, tc)
	m["logreg.train_ms"] = ms(time.Since(t0))

	successes := v.db.Successes()
	t0 = time.Now()
	elim.ProgressiveWorkers(successes, v.keep, []int{50, 200, len(successes)}, 20, 3, analyzeWorkers)
	m["elim.progressive_ms"] = ms(time.Since(t0))
}

// verify reruns the regression on the dense engine, serially — the
// differential oracle the sparse engine is kept bit-identical to — and
// checks that the verdict points at the planted bug.
func (a *analyzeBC) verify(c *runCtx) {
	v := a.last
	dtrain := logreg.BuildDataset(v.train, v.keep)
	dcv := dtrain.Project(v.cv)
	lambda, model := logreg.CrossValidate(dtrain, dcv, analyzeLambdas, a.trainConfig(1))
	c.check("analyze_bc.dense_lambda", lambda == v.lambda,
		fmt.Sprintf("sparse CV chose lambda %g, dense oracle %g", v.lambda, lambda))
	c.check("analyze_bc.dense_model", model.Beta0 == v.model.Beta0 && reflect.DeepEqual(model.Beta, v.model.Beta),
		"sparse model coefficients differ from the dense oracle")
	c.check("analyze_bc.dense_top10", reflect.DeepEqual(model.TopFeatures(analyzeTopK), v.topModel),
		"sparse top-10 differs from the dense oracle")

	if data, err := os.ReadFile(a.path); err == nil {
		sum := sha256.Sum256(data)
		c.info.Pools["analyze_bc.file"] = hex.EncodeToString(sum[:])
	}
	if v.db.Len() < analyzePlantedMinRuns {
		return // too few runs for the model to be held to the planted bug (test scale)
	}
	// The paper's qualitative result (§3.3.3): the verdict points into
	// more_arrays. Stated so that it held on every one of 40 surveyed
	// seeds: the rank-1 importance predicate sits there, and so do at
	// least 3 of the regression's top 10 (the l1 model spreads weight over
	// redundant sites, and on some seeds its single top feature is not
	// one of them).
	fn := func(counter int) string {
		if site := a.built.Program.SiteForCounter(counter); site != nil {
			return site.Fn
		}
		return "none"
	}
	first := "none"
	if len(v.topScore) > 0 {
		first = fn(v.topScore[0].Counter)
	}
	c.check("analyze_bc.top_importance_in_more_arrays", first == "more_arrays",
		fmt.Sprintf("rank-1 importance predicate sits in %s, want more_arrays", first))
	inside := 0
	for _, r := range v.topModel {
		if fn(r.Counter) == "more_arrays" {
			inside++
		}
	}
	c.check("analyze_bc.top_features_in_more_arrays", inside >= 3,
		fmt.Sprintf("%d of the regression's top %d features sit in more_arrays, want at least 3", inside, len(v.topModel)))
}

func (a *analyzeBC) close() { os.RemoveAll(a.dir) }
