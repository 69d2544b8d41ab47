package rng

import (
	"math"
	"math/rand"
	"testing"
)

// testSeeds are the seeds TestSourceMatchesMathRand runs: the ones Seed
// reduces specially (0 and multiples of 2³¹−1 map to 89482311; negative
// seeds wrap), the extremes of int64, and 300 spread over the whole range.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		mod, -mod, 2 * mod, 3*mod + 1, mod - 1, mod + 1,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// callsPerSeed calls make about 2 000 draws: past the lazy phase (273
// draws) and three laps of the 607-word state, so the fill and the wrap
// of tap and feed are both crossed.
const callsPerSeed = 1300

// draw makes call i on r with one of the methods the repository calls,
// rotating through them, and returns the result as a float64 (Perm's as
// its first element and a checksum, which is enough to catch a drift).
func draw(r *rand.Rand, i int) (float64, float64) {
	switch i % 8 {
	case 0:
		return float64(r.Uint64() >> 11), 0
	case 1:
		return float64(r.Int63() >> 10), 0
	case 2:
		return float64(r.Int63n(1e12 + int64(i))), 0
	case 3:
		return float64(r.Intn(1 + i)), 0
	case 4:
		return r.Float64(), 0
	case 5:
		return r.ExpFloat64(), 0
	case 6:
		return r.NormFloat64(), 0
	default:
		p := r.Perm(1 + i%11)
		sum := 0
		for j, v := range p {
			sum += (j + 1) * v
		}
		return float64(p[0]), float64(sum)
	}
}

// same fails t at the first call where got and want disagree.
func same(t testing.TB, seed int64, got, want *rand.Rand, calls int) {
	t.Helper()
	for i := 0; i < calls; i++ {
		g1, g2 := draw(got, i)
		w1, w2 := draw(want, i)
		if g1 != w1 || g2 != w2 {
			t.Fatalf("seed %d, call %d (method %d): got (%v, %v), math/rand (%v, %v)", seed, i, i%8, g1, g2, w1, w2)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		same(t, seed, got, want, callsPerSeed)
		// Re-seeding a used generator: after the fill, and inside the lazy
		// phase.
		reseed := seed ^ 0x5DEECE66D
		got.Seed(reseed)
		want.Seed(reseed)
		same(t, reseed, got, want, 10)
		got.Seed(seed)
		want.Seed(seed)
		same(t, seed, got, want, callsPerSeed)
	}
}

// TestFillFollowsLazyPhase: the state is filled on draw tap+1, not
// earlier, which would charge a run that stops before it words it never
// reads, and not later, when the tap would read a word a feed wrote.
func TestFillFollowsLazyPhase(t *testing.T) {
	s := &source{}
	s.Seed(7)
	for k := 1; k <= tap+1; k++ {
		s.Uint64()
		if want := k <= tap; s.lazy != want {
			t.Fatalf("after draw %d: lazy = %v, want %v", k, s.lazy, want)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(1), uint16(273))
	f.Add(int64(-1), uint16(274))
	f.Add(int64(mod), uint16(700))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		calls := int(n % 2000)
		got, want := New(seed), rand.New(rand.NewSource(seed))
		same(t, seed, got, want, calls)
		reseed := seed + int64(n)
		got.Seed(reseed)
		want.Seed(reseed)
		same(t, reseed, got, want, calls%97)
	})
}

var sink uint64

func BenchmarkSeedAnd20Draws(b *testing.B) {
	b.Run("rng", func(b *testing.B) { benchSeed(b, New(1)) })
	b.Run("math-rand", func(b *testing.B) { benchSeed(b, rand.New(rand.NewSource(1))) })
}

func benchSeed(b *testing.B, r *rand.Rand) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
		for j := 0; j < 20; j++ {
			sink += r.Uint64()
		}
	}
}

func BenchmarkDraw(b *testing.B) {
	b.Run("rng", func(b *testing.B) { benchDraw(b, New(1)) })
	b.Run("math-rand", func(b *testing.B) { benchDraw(b, rand.New(rand.NewSource(1))) })
}

func benchDraw(b *testing.B, r *rand.Rand) {
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
}
