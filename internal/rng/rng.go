// Package rng provides math/rand's generator with an O(1) Seed.
//
// A run of the system seeds a fresh generator per report (the sampler's
// countdowns, a workload's simulated world, the guest's rand()) and often
// draws only a few dozen numbers from it. math/rand's source spends 1 841
// Schrage steps filling its 607-word state on every Seed, which costs
// more than the draws. The source here produces the identical stream but
// computes each state word the first time a draw reads it, so a run of d
// draws computes min(2d, 607) words.
package rng

import "math/rand"

const (
	length = 607 // state words (math/rand's rngLen)
	tap    = 273 // lag of the second operand (math/rand's rngTap)
	mod    = 1<<31 - 1
	mult   = 48271 // the seeding LCG's multiplier: x(n+1) = 48271·x(n) mod 2³¹−1

	// skip is the number of LCG steps math/rand discards before word 0.
	skip = 20
)

var (
	// pow[n] = 48271ⁿ mod 2³¹−1, so the seeding LCG's n-th value from
	// seed s is pow[n]·s mod 2³¹−1 (Seed's Schrage steps are exact).
	pow [skip + 1 + 3*length]uint64
	// cooked is math/rand's rngCooked, the constants seeding XORs into
	// each word; see init for where it comes from.
	cooked [length]uint64
)

// init builds pow and recovers cooked from math/rand's own stream, so the
// two generators cannot drift apart. Draw k of a fresh source sets
// vec[feed] = vec[feed] + vec[tap] with feed = (333−k) mod 607 and
// tap = 606−k. For k ≥ 273 the tap is the word draw k−273 wrote, so
// v[(333−k) mod 607] = o(k) − o(k−273), giving words 0…60 and 334…606;
// for k < 273 both words are initial, so v[333−k] = o(k) − v[606−k].
// XOR-ing off the LCG part of each recovered word leaves cooked.
func init() {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * mult % mod
	}
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var o [length]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	var v [length]uint64
	for k := tap; k < length; k++ {
		v[(2*length-tap-1-k)%length] = o[k] - o[k-tap]
	}
	for k := 0; k < tap; k++ {
		v[length-tap-1-k] = o[k] - v[length-1-k]
	}
	for i := range v {
		cooked[i] = v[i] ^ lcgWord(seed, i)
	}
}

// lcgWord is word i's seed-dependent part: the LCG values x(21+3i),
// x(22+3i) and x(23+3i), packed as math/rand's Seed packs them.
func lcgWord(seed uint64, i int) uint64 {
	n := skip + 1 + 3*i
	return pow[n]*seed%mod<<40 ^ pow[n+1]*seed%mod<<20 ^ pow[n+2]*seed%mod
}

// New returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)). Re-seed it in place with its Seed
// method, which costs O(1).
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's additive lagged-Fibonacci source with state words
// computed on demand. It implements rand.Source64, so (*rand.Rand).Uint64
// reads it directly, as it does math/rand's own source.
type source struct {
	seed      uint64 // reduced as math/rand reduces it: 1 ≤ seed < 2³¹−1
	tap, feed int
	lazy      bool // vec holds only the words drawing has read
	vec       [length]uint64
}

// Seed resets s to the stream of rand.NewSource(seed) without touching
// its state words.
func (s *source) Seed(seed int64) {
	seed %= mod
	if seed < 0 {
		seed += mod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, length-tap
	s.lazy = true
}

// word is state word i as math/rand's Seed would have left it.
func (s *source) word(i int) uint64 {
	return lcgWord(s.seed, i) ^ cooked[i]
}

// Uint64 is math/rand's draw. Draw k (0-based) reads tap 606−k and feed
// 333−k, so until the tap reaches the first word a feed wrote (333, at
// draw 273) every word a draw reads is an initial one: the lazy phase
// computes both, stores both, and needs no record of which words exist.
// Draw 273 computes the 61 words no draw has read (0…60) and runs
// math/rand's body from then on; a long run thus computes 607 words, as
// math/rand's Seed does.
func (s *source) Uint64() uint64 {
	t, f := s.tap-1, s.feed-1
	if t < 0 {
		t += length
	}
	if f < 0 {
		f += length
	}
	s.tap, s.feed = t, f
	if s.lazy {
		if t >= length-tap {
			y := s.word(t)
			s.vec[t] = y
			x := s.word(f) + y
			s.vec[f] = x
			return x
		}
		for i := 0; i <= f; i++ {
			s.vec[i] = s.word(i)
		}
		s.lazy = false
	}
	x := s.vec[f] + s.vec[t]
	s.vec[f] = x
	return x
}

func (s *source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
