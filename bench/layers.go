package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"cbi/internal/analysis/score"
	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/minic"
	"cbi/internal/quality"
	"cbi/internal/report"
	"cbi/internal/sampler"
	"cbi/internal/telemetry"
)

// source is one MiniC program a workload builds.
type source struct {
	name     string
	text     string
	builtins map[string]minic.BuiltinSig
	schemes  instrument.SchemeSet
}

// builtProgram is a source taken through the whole tool chain.
type builtProgram struct {
	baseline    *cfg.Program // uninstrumented: Table 2's denominator
	uncond      *cfg.Program
	sampled     *cfg.Program
	sampledCode *interp.Compiled
}

// stageTimes is where one build's time went, by layer.
type stageTimes struct {
	parse, build, sample, compile time.Duration
}

func (s stageTimes) total() time.Duration { return s.parse + s.build + s.sample + s.compile }

// buildSource runs parse -> instrument.Build -> instrument.Sample ->
// interp.Compile on one source, timing each stage. The uninstrumented
// baseline is lowered too (the denominator of code growth and of Table 2)
// but off the stage clocks: a deployment ships only the sampled binary.
func buildSource(src source) (*builtProgram, stageTimes, error) {
	var st stageTimes
	t0 := time.Now()
	file, err := minic.Parse(src.name+".mc", src.text)
	if err != nil {
		return nil, st, fmt.Errorf("parse %s: %w", src.name, err)
	}
	t1 := time.Now()
	uncond, err := instrument.Build(file, src.builtins, src.schemes)
	if err != nil {
		return nil, st, fmt.Errorf("instrument %s: %w", src.name, err)
	}
	t2 := time.Now()
	sampled := instrument.Sample(uncond, instrument.DefaultOptions())
	t3 := time.Now()
	sampledCode := interp.Compile(sampled)
	t4 := time.Now()
	st = stageTimes{parse: t1.Sub(t0), build: t2.Sub(t1), sample: t3.Sub(t2), compile: t4.Sub(t3)}

	baseline, err := instrument.BuildBaseline(file, src.builtins)
	if err != nil {
		return nil, st, fmt.Errorf("baseline %s: %w", src.name, err)
	}
	return &builtProgram{baseline: baseline, uncond: uncond, sampled: sampled, sampledCode: sampledCode}, st, nil
}

// buildAll builds every source once and sums the stage times.
func buildAll(srcs []source) ([]*builtProgram, stageTimes, error) {
	var sum stageTimes
	out := make([]*builtProgram, 0, len(srcs))
	for _, src := range srcs {
		bp, st, err := buildSource(src)
		if err != nil {
			return nil, sum, err
		}
		out = append(out, bp)
		sum.parse += st.parse
		sum.build += st.build
		sum.sample += st.sample
		sum.compile += st.compile
	}
	return out, sum, nil
}

// buildTimes collects the stage times of repeated builds of one set of
// sources.
type buildTimes struct {
	parse, build, sample, compile, total []float64
	last                                 []*builtProgram
}

// add builds every source once more.
func (b *buildTimes) add(srcs []source) error {
	progs, st, err := buildAll(srcs)
	if err != nil {
		return err
	}
	b.last = progs
	b.parse = append(b.parse, us(st.parse))
	b.build = append(b.build, us(st.build))
	b.sample = append(b.sample, us(st.sample))
	b.compile = append(b.compile, us(st.compile))
	b.total = append(b.total, ms(st.total()))
	return nil
}

// report records the tool-chain layers' medians (minic, instrument,
// interp.compile) plus the static counts of Table 1, and returns the
// median total in milliseconds.
func (b *buildTimes) report(m map[string]float64, srcs []source) float64 {
	bytes := 0
	for _, s := range srcs {
		bytes += len(s.text)
	}
	sites, size, baseSize := 0, 0, 0
	for _, bp := range b.last {
		sites += len(bp.sampled.Sites)
		size += instrument.CodeSize(bp.sampled)
		baseSize += instrument.CodeSize(bp.baseline)
	}
	m["minic.parse_us"] = median(b.parse)
	m["minic.parse_mb_per_s"] = float64(bytes) / median(b.parse) // bytes/us == MB/s
	m["instrument.build_us"] = median(b.build)
	m["instrument.sample_us"] = median(b.sample)
	m["interp.compile_us"] = median(b.compile)
	m["instrument.sites"] = float64(sites)
	m["instrument.code_size"] = float64(size)
	m["instrument.code_growth"] = float64(size) / float64(baseSize)
	return median(b.total)
}

// buildLayers probes the tool chain: reps builds of srcs, back to back.
func buildLayers(m map[string]float64, srcs []source, reps int) error {
	var b buildTimes
	for i := 0; i < reps; i++ {
		if err := b.add(srcs); err != nil {
			return err
		}
	}
	b.report(m, srcs)
	return nil
}

// siteSpans lists a program's counter span per site, for site-context
// scoring.
func siteSpans(p *cfg.Program) []score.SiteSpan {
	spans := make([]score.SiteSpan, 0, len(p.Sites))
	for _, s := range p.Sites {
		spans = append(spans, score.SiteSpan{Base: s.CounterBase, Len: s.NumCounters})
	}
	return spans
}

// poolHash is the SHA-256 of a report pool's wire encoding in order: the
// identity of a generated input set, recorded in the result envelope.
func poolHash(reps []*report.Report) string {
	h := sha256.New()
	for _, r := range reps {
		h.Write(r.Encode())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reportLayers probes the report codec, the fold paths, the live scoring
// accumulator and the quality engine on a workload's own reports, one
// call per layer entry point, and records the pool's exact wire counts.
func reportLayers(m map[string]float64, reps []*report.Report, numCounters int, spans []score.SiteSpan) {
	if len(reps) > 256 {
		reps = reps[:256]
	}
	encoded := make([][]byte, len(reps))
	wire, nonzeros := 0, 0
	for i, r := range reps {
		encoded[i] = r.Encode()
		wire += len(encoded[i])
		nonzeros += len(r.Nonzeros())
	}
	n := float64(len(reps))
	m["report.wire_bytes"] = float64(wire) / n
	m["report.nonzeros"] = float64(nonzeros) / n

	i := 0
	next := func() int { i = (i + 1) % len(reps); return i }
	m["report.encode_ns"] = probe(func() { reps[next()].Encode() }).ns
	decoded := make([]*report.Report, len(reps))
	m["report.decode_ns"] = probe(func() {
		k := next()
		decoded[k], _ = report.Decode(encoded[k])
	}).ns
	for k := range decoded {
		if decoded[k] == nil {
			decoded[k], _ = report.Decode(encoded[k])
		}
	}

	batch := reps
	if len(batch) > ingestBatch {
		batch = batch[:ingestBatch]
	}
	bn := float64(len(batch))
	var body []byte
	m["report.batch_encode_ns"] = probe(func() { body = report.EncodeBatch(batch) }).ns / bn
	m["report.batch_decode_ns"] = probe(func() { report.DecodeBatch(body) }).ns / bn

	// Folds take decoded reports, as the collector's do: the sparse form
	// comes for free from the wire.
	agg := report.NewAggregate(reps[0].Program, numCounters)
	m["report.fold_ns"] = probe(func() { agg.Fold(decoded[next()]) }).ns
	var bs report.BatchStats
	dbatch := decoded[:len(batch)]
	m["report.foldbatch_ns"] = probe(func() {
		bs.Reset(numCounters)
		for _, r := range dbatch {
			bs.Observe(r)
		}
		agg.FoldBatch(&bs)
	}).ns / bn

	// The delta an edge ships upstream: every pool report folded exactly
	// once, so the encoded size repeats for a fixed seed.
	exact := report.NewAggregate(reps[0].Program, numCounters)
	for _, r := range decoded {
		exact.Fold(r)
	}
	var stats []byte
	m["report.aggstats_encode_us"] = probe(func() { stats = exact.EncodeStats() }).ns / 1e3
	m["report.aggstats_bytes"] = float64(len(stats))
	if other, err := report.DecodeAggregateStats(stats); err == nil {
		other.Program = agg.Program
		m["report.agg_merge_us"] = probe(func() { agg.Merge(other) }).ns / 1e3
	}

	acc := score.NewAccum(numCounters, spans)
	m["score.accum_fold_ns"] = probe(func() { acc.Fold(decoded[next()]) }).ns
	m["score.predicates_ms"] = probe(func() { score.Rank(acc.Predicates()) }).ns / 1e6

	eng := quality.New(quality.Config{Interval: -1})
	eng.Bind(telemetry.NewRegistry())
	m["quality.observe_ns"] = probe(func() {
		r := decoded[next()]
		eng.ObserveAccepted(r.RunID, len(r.Counters), r.WireLen(), len(r.Nonzeros()), 1, r.Crashed)
	}).ns
	m["quality.snapshot_us"] = probe(func() { eng.TakeSnapshot() }).ns / 1e3
}

// samplerLayer probes one countdown draw at the fleet's density.
func samplerLayer(m map[string]float64, density float64) {
	g := sampler.NewGeometric(1, density)
	m["sampler.next_ns"] = probe(func() { g.Next() }).ns
}
