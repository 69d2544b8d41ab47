package core

import (
	"reflect"
	"strings"
	"testing"

	"cbi/internal/analysis/elim"
	"cbi/internal/analysis/logreg"
	"cbi/internal/instrument"
	"cbi/internal/report"
)

// The §3.2 reproduction: fuzz ccrypt with sampled returns-scheme
// instrumentation and verify that predicate elimination isolates the EOF
// smoking gun.
func TestCcryptStudyIsolatesSmokingGun(t *testing.T) {
	study, err := RunCcryptStudy(4000, 1.0/100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if study.Crashes == 0 || study.Crashes == study.Runs {
		t.Fatalf("runs=%d crashes=%d", study.Runs, study.Crashes)
	}
	if len(study.Survivors) == 0 {
		t.Fatal("no survivors; the smoking gun was never sampled in a crash")
	}
	// The paper's result: the combination leaves a handful of predicates
	// (two in their data), and the xreadline() EOF predicate is among
	// them.
	if len(study.Survivors) > 6 {
		t.Errorf("too many survivors (%d):\n%s", len(study.Survivors), FormatSurvivors(study.Survivors))
	}
	foundGun := false
	for _, s := range study.Survivors {
		if strings.Contains(s.Name, "xreadline() return value == 0") {
			foundGun = true
		}
	}
	if !foundGun {
		t.Errorf("xreadline EOF predicate not among survivors:\n%s", FormatSurvivors(study.Survivors))
	}
	// Sanity on strategy counts (§3.2.3 shape): SC retains many,
	// UF retains few, the combination retains the least.
	c := study.Counts
	if !(c.UFandSC <= c.UniversalFalsehood && c.UFandSC <= c.SuccessfulCounterexample) {
		t.Errorf("combination should be smallest: %+v", c)
	}
	if c.LackOfFailingExample > c.UniversalFalsehood {
		t.Errorf("LFE should retain a subset of UF: %+v", c)
	}
}

func TestCcryptFig2Shrinks(t *testing.T) {
	study, err := RunCcryptStudy(1200, 1.0/100, 7)
	if err != nil {
		t.Fatal(err)
	}
	points := study.Fig2Points([]int{25, 100, 400, len(study.DB.Successes())}, 20, 3)
	if len(points) != 4 {
		t.Fatal("points")
	}
	for i := 1; i < len(points); i++ {
		if points[i].Mean > points[i-1].Mean {
			t.Errorf("figure 2 not decreasing: %+v", points)
		}
	}
	// With all successes used, the count must match the full combined
	// elimination (modulo none: deterministic).
	last := points[len(points)-1]
	if int(last.Mean) != len(study.Survivors) || last.StdDev != 0 {
		t.Errorf("full-set point %+v vs %d survivors", last, len(study.Survivors))
	}
}

// The §3.3 reproduction: bc with scalar-pairs, logistic regression ranks
// the buggy line's predicates at the top.
func TestBCStudyPointsAtBuggyLine(t *testing.T) {
	study, err := RunBCStudy(BCStudyConfig{Runs: 1200, Density: 0, Seed: 11, Epochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if study.Crashes == 0 {
		t.Fatal("no crashes")
	}
	if study.UsedFeatures == 0 || study.UsedFeatures >= study.RawFeatures {
		t.Errorf("feature elimination: %d of %d", study.UsedFeatures, study.RawFeatures)
	}
	if study.TestAccuracy < 0.85 {
		t.Errorf("test accuracy %.3f", study.TestAccuracy)
	}
	if len(study.Top) == 0 {
		t.Fatal("no ranked predicates")
	}
	// The paper's qualitative claim: the top predicates point into
	// more_arrays, and the buggy zeroing loop is among them. With exact
	// (unconditional) counters the l1 penalty concentrates weight on the
	// crash-perfect predicates, so we require the top features to sit in
	// more_arrays with at least one on the buggy line itself.
	if at := study.TopPointAtFunction(); at < 3 {
		t.Errorf("only %d of top-%d predicates point into more_arrays:\n%s",
			at, len(study.Top), FormatTop(study.Top))
	}
	if at := study.TopPointAtBug(); at < 1 {
		t.Errorf("no top predicate on the buggy line:\n%s", FormatTop(study.Top))
	}
	if study.BuggyLine <= 0 {
		t.Error("buggy line")
	}
}

func TestBCStudySampledStillWorks(t *testing.T) {
	// At 1/10 sampling with enough runs the signal survives sampling
	// noise (the paper used 1/1000 with 4,390 runs; we scale density up
	// to keep the test fast).
	study, err := RunBCStudy(BCStudyConfig{Runs: 1500, Density: 1.0 / 10, Seed: 23, Epochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if study.TestAccuracy < 0.7 {
		t.Errorf("test accuracy %.3f", study.TestAccuracy)
	}
	if at := study.TopPointAtBug(); at < 2 {
		t.Errorf("top predicates do not point at the bug (%d):\n%s", at, FormatTop(study.Top))
	}
}

func TestTable1AllBenchmarks(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		m := r.Metrics
		if m.Functions == 0 || m.WithSites == 0 {
			t.Errorf("%s: %+v", r.Benchmark, m)
		}
		if m.AvgSitesPerFunc <= 0 || m.AvgThresholdWeight <= 0 {
			t.Errorf("%s: averages %+v", r.Benchmark, m)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "treeadd") || !strings.Contains(text, "li") {
		t.Error("format")
	}
}

func TestOverheadShapeOnOneBenchmark(t *testing.T) {
	row, err := MeasureOverhead("compress", OverheadConfig{Seed: 1, Scheme: instrument.SchemeSet{Bounds: true}})
	if err != nil {
		t.Fatal(err)
	}
	if row.Always <= 1 {
		t.Errorf("unconditional instrumentation should cost: %.3f", row.Always)
	}
	// Sampled at 1/100 must beat unconditional; sparser densities reach a
	// floor at or below the 1/100 cost.
	if len(row.Sampled) != len(Table2Densities) {
		t.Fatal("density columns")
	}
	if row.Sampled[0] >= row.Always {
		t.Errorf("1/100 sampling (%.3f) should beat always (%.3f)", row.Sampled[0], row.Always)
	}
	last := row.Sampled[len(row.Sampled)-1]
	if last > row.Sampled[0]+0.01 {
		t.Errorf("sparser sampling should not cost more: %v", row.Sampled)
	}
	if last <= 1 {
		t.Errorf("sampled code keeps some overhead (fast-path decrements): %.4f", last)
	}
	text := FormatOverheadRows([]OverheadRow{row}, Table2Densities)
	if !strings.Contains(text, "compress") {
		t.Error("format")
	}
}

func TestFig4BCOverheadShape(t *testing.T) {
	row, err := Fig4(OverheadConfig{Seed: 5, Densities: []float64{1.0 / 100, 1.0 / 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if row.Always <= 1 {
		t.Errorf("always: %.3f", row.Always)
	}
	if !(row.Sampled[1] <= row.Sampled[0] && row.Sampled[0] < row.Always) {
		t.Errorf("figure 4 shape violated: always=%.3f sampled=%v", row.Always, row.Sampled)
	}
}

func TestSelectiveSingleFunction(t *testing.T) {
	res, err := Selective("compress", 1.0/1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FuncsMeasured == 0 {
		t.Fatal("no functions measured")
	}
	// §3.1.2: single-function builds grow far less than whole-program
	// instrumentation.
	if !(1 < res.AvgSelectiveGrowth && res.AvgSelectiveGrowth < res.FullGrowth) {
		t.Errorf("growth: selective %.3f vs full %.3f", res.AvgSelectiveGrowth, res.FullGrowth)
	}
	if res.WorstOverhead <= 1 || res.WorstOverhead > res.FullGrowth+1 {
		t.Errorf("worst overhead: %.3f", res.WorstOverhead)
	}
}

func TestConfidenceTablePaperValues(t *testing.T) {
	rows := ConfidenceTable()
	if rows[0].Runs != 230258 {
		t.Errorf("row 0: %d", rows[0].Runs)
	}
	if rows[1].Runs != 4605168 {
		t.Errorf("row 1: %d", rows[1].Runs)
	}
}

func TestBuildAnyCaseStudies(t *testing.T) {
	for _, name := range []string{"bc", "ccrypt", "treeadd"} {
		var set instrument.SchemeSet
		switch name {
		case "bc":
			set.ScalarPairs = true
		case "ccrypt":
			set.Returns = true
		default:
			set.Bounds = true
		}
		b, err := buildAny(name, set, false, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Program == nil {
			t.Fatalf("%s: nil program", name)
		}
	}
	if _, err := buildAny("nonesuch", instrument.SchemeSet{}, false, false); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestStudySurvivorNamesCarryPositions(t *testing.T) {
	study, err := RunCcryptStudy(600, 1.0/20, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range study.Survivors {
		if !strings.Contains(s.Name, "ccrypt.mc:") {
			t.Errorf("survivor name lacks position: %q", s.Name)
		}
	}
}

// The sparse analysis RunBCStudy ships must reproduce the dense oracle
// bit for bit: same cross-validated lambda, coefficients, ranking, and
// test accuracy. The dense side is computed here, from the study's own
// reports, with the recipe RunBCStudy uses.
func TestBCStudySparseMatchesDenseOracle(t *testing.T) {
	conf := BCStudyConfig{
		Runs: 600, Density: 1.0 / 10, Seed: 31, Epochs: 15, Workers: 2,
		Lambdas: []float64{0.05, 0.1, 0.3, 1.0}, TopK: 5,
	}
	sparse, err := RunBCStudy(conf)
	if err != nil {
		t.Fatal(err)
	}

	agg := report.NewAggregate("bc", sparse.Program.NumCounters)
	if err := agg.FromDB(sparse.DB); err != nil {
		t.Fatal(err)
	}
	keep := elim.UniversalFalsehood(agg)
	trainR, cvR, testR := logreg.Split(sparse.DB.Reports, 0.62, 0.07, conf.Seed+1)
	train := logreg.BuildDataset(trainR, keep)
	lambda, dense := logreg.CrossValidate(train, train.Project(cvR), conf.Lambdas,
		logreg.TrainConfig{StepSize: 1e-2, Epochs: conf.Epochs, Seed: conf.Seed + 2, Workers: 1})

	if sparse.Lambda != lambda {
		t.Errorf("lambda %g != %g", sparse.Lambda, lambda)
	}
	if sparse.Model.Beta0 != dense.Beta0 || !reflect.DeepEqual(sparse.Model.Beta, dense.Beta) {
		t.Error("models differ")
	}
	if acc := dense.Accuracy(train.Project(testR)); sparse.TestAccuracy != acc {
		t.Errorf("test accuracy %v != %v", sparse.TestAccuracy, acc)
	}
	var top []RankedPredicate
	for _, r := range dense.TopFeatures(conf.TopK) {
		top = append(top, RankedPredicate{Counter: r.Counter, Name: sparse.Program.PredicateName(r.Counter), Beta: r.Beta})
	}
	if !reflect.DeepEqual(sparse.Top, top) {
		t.Errorf("rankings differ:\n%+v\n%+v", sparse.Top, top)
	}
	gun := sparse.smokingGunCounter()
	if gun < 0 {
		t.Fatal("no smoking-gun counter in the bc site table")
	}
	if sparse.SmokingGunRank != dense.Rank(gun) {
		t.Error("smoking-gun rank differs")
	}
}
