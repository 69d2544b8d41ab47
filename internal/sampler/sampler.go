// Package sampler implements the statistically fair sampling machinery of
// §2.1: geometrically distributed next-sample countdowns that make sparse
// Bernoulli sampling cheap, pre-generated countdown banks, and a periodic
// sampler used only to demonstrate the fairness failure of fixed-period
// sampling.
package sampler

import (
	"math"
	"math/rand"
	"slices"

	"cbi/internal/rng"
)

// NeverSample is the countdown value used when the sampling density is
// zero: no site will ever fire.
const NeverSample = math.MaxInt64

// Source produces next-sample countdowns. A countdown of k means: skip
// k-1 sampling opportunities, then sample the k-th.
type Source interface {
	Next() int64
}

// Geometric draws countdowns from the geometric distribution with success
// probability equal to the sampling density 1/d. This models the
// inter-arrival times of a Bernoulli process — each dynamic site
// independently has a 1/d chance of being sampled — which is what makes
// the reported counter frequencies statistically fair (§2.1).
type Geometric struct {
	rng     *rand.Rand
	density float64
	ln1mp   float64 // ln(1 - density), cached
}

// NewGeometric returns a geometric countdown source with the given
// sampling density in (0, 1]. A density of 0 yields NeverSample forever
// (callers that know the density is zero should use Never, which seeds
// nothing).
func NewGeometric(seed int64, density float64) *Geometric {
	g := &Geometric{}
	g.Reset(seed, density)
	return g
}

// Reset re-seeds g in place: afterwards g produces exactly the stream of
// NewGeometric(seed, density), without allocating a new generator. The
// zero Geometric may be Reset.
func (g *Geometric) Reset(seed int64, density float64) {
	if g.rng == nil {
		g.rng = rng.New(seed)
	} else {
		g.rng.Seed(seed)
	}
	g.density, g.ln1mp = density, 0
	if density > 0 && density < 1 {
		g.ln1mp = math.Log1p(-density)
	}
}

// Density returns the sampling density.
func (g *Geometric) Density() float64 { return g.density }

// Next draws the next countdown by inverse-transform sampling:
// k = floor(ln(U)/ln(1-p)) + 1 for uniform U in (0,1).
func (g *Geometric) Next() int64 {
	switch {
	case g.density <= 0:
		return NeverSample
	case g.density >= 1:
		return 1
	}
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	k := int64(math.Log(u)/g.ln1mp) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// Never is the stateless countdown source of a run that cannot sample
// (density zero): every draw is NeverSample, and there is no generator to
// seed.
type Never struct{}

// Next returns NeverSample.
func (Never) Next() int64 { return NeverSample }

// Bank is a circular bank of countdowns. The paper's implementation uses
// pre-generated banks of 1024 geometrically distributed random
// countdowns; because countdowns are consumed d times more slowly than raw
// coin tosses, a modest bank lasts a long time (§2.1) — so long that a
// short run reads only its first few slots. The bank therefore fills
// lazily: slot i is drawn from the source the first time the cursor
// reaches it and replayed on every later lap. The bank owns its source
// (nothing else may draw from it), so the slots hold exactly the values an
// up-front fill would have drawn, in the same order.
type Bank struct {
	src    Source
	vals   []int64
	idx    int
	filled int // vals[:filled] are drawn
}

// NewBank returns a bank of n countdowns (at least one) over src.
func NewBank(src Source, n int) *Bank {
	b := &Bank{}
	b.Reset(src, n)
	return b
}

// Reset turns b, in place, into NewBank(src, n), keeping the slot array
// when it is large enough. The zero Bank may be Reset.
func (b *Bank) Reset(src Source, n int) {
	if n <= 0 {
		n = 1
	}
	b.vals = slices.Grow(b.vals[:0], n)[:n]
	b.src, b.idx, b.filled = src, 0, 0
}

// Next returns the next banked countdown, cycling.
func (b *Bank) Next() int64 {
	if b.idx == b.filled { // first lap only: filled stops at len(vals)
		b.vals[b.idx] = b.src.Next()
		b.filled++
	}
	v := b.vals[b.idx]
	b.idx++
	if b.idx == len(b.vals) {
		b.idx = 0
	}
	return v
}

// Len returns the bank size.
func (b *Bank) Len() int { return len(b.vals) }

// Periodic is a fixed-period countdown source: exactly one sample every
// Period opportunities. It reproduces the strictly periodic triggers of
// classical profilers, which the paper rejects because they can
// systematically miss (or systematically hit) events that are correlated
// with the period (§2.1's "every fiftieth iteration" pathology).
type Periodic struct {
	Period int64
}

// Next returns the fixed period.
func (p *Periodic) Next() int64 {
	if p.Period < 1 {
		return 1
	}
	return p.Period
}

// Bernoulli is the reference implementation of fair sampling: toss a
// biased coin at every opportunity. It is the behaviour the countdown
// machinery must be indistinguishable from, and the slow baseline the
// fast-path transformation exists to avoid.
type Bernoulli struct {
	rng     *rand.Rand
	density float64
}

// NewBernoulli returns a Bernoulli sampler with the given density.
func NewBernoulli(seed int64, density float64) *Bernoulli {
	return &Bernoulli{rng: rng.New(seed), density: density}
}

// Sample tosses the coin once.
func (b *Bernoulli) Sample() bool { return b.rng.Float64() < b.density }

// Next makes Bernoulli a Source by counting tosses until the first head,
// which is by construction geometric.
func (b *Bernoulli) Next() int64 {
	if b.density <= 0 {
		return NeverSample
	}
	var k int64 = 1
	for !b.Sample() {
		k++
	}
	return k
}
