package quality

import (
	"math/rand"
	"testing"
)

// TestSpaceSavingGuarantees verifies the two published bounds against
// exact counts on a Zipf-skewed stream much wider than the sketch:
// every tracked key satisfies count-maxError <= true <= count, and every
// key with true count > N/m is tracked.
func TestSpaceSavingGuarantees(t *testing.T) {
	const capacity = 32
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, 999)
	sk := NewSpaceSaving(capacity)
	exact := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		k := zipf.Uint64()
		exact[k]++
		sk.Offer(Source{Kind: SourceRun, Value: k})
	}
	if sk.N() != n {
		t.Fatalf("N = %d, want %d", sk.N(), n)
	}
	if sk.Len() > capacity {
		t.Fatalf("tracking %d keys, capacity %d", sk.Len(), capacity)
	}
	tracked := make(map[string]HeavyHitter)
	for _, h := range sk.Top(0) {
		tracked[h.Key] = h
	}
	bound := uint64(n / capacity)
	for k, truth := range exact {
		key := Source{Kind: SourceRun, Value: k}.String()
		h, ok := tracked[key]
		if !ok {
			if truth > bound {
				t.Errorf("key %s: true count %d > N/m %d but not tracked", key, truth, bound)
			}
			continue
		}
		if h.Count < truth {
			t.Errorf("key %s: estimate %d < true %d (must overestimate)", key, h.Count, truth)
		}
		if h.Count-h.MaxError > truth {
			t.Errorf("key %s: estimate %d - maxError %d > true %d", key, h.Count, h.MaxError, truth)
		}
		if h.Count >= truth && h.Count-truth > bound {
			t.Errorf("key %s: estimate %d overshoots true %d by more than N/m %d", key, h.Count, truth, bound)
		}
	}
}

func TestSpaceSavingExactUnderCapacity(t *testing.T) {
	// Fewer distinct keys than capacity: counts are exact, errors zero.
	sk := NewSpaceSaving(16)
	for i := 0; i < 300; i++ {
		sk.Offer(Source{Kind: SourceShape, Value: uint64(i % 3)})
	}
	top := sk.Top(10)
	if len(top) != 3 {
		t.Fatalf("tracked %d keys, want 3", len(top))
	}
	for _, h := range top {
		if h.Count != 100 || h.MaxError != 0 {
			t.Errorf("%s: count %d (want 100), maxError %d (want 0)", h.Key, h.Count, h.MaxError)
		}
	}
}

func TestSpaceSavingTopOrderStable(t *testing.T) {
	sk := NewSpaceSaving(8)
	for i := 0; i < 5; i++ {
		sk.Offer(Source{Kind: SourceRun, Value: 1})
	}
	for i := 0; i < 3; i++ {
		sk.Offer(Source{Kind: SourceRun, Value: 2})
	}
	sk.Offer(Source{Kind: SourceReject, Value: uint64(ReasonDecode)})
	top := sk.Top(2)
	if len(top) != 2 || top[0].Key != "run:1" || top[1].Key != "run:2" {
		t.Errorf("top = %+v", top)
	}
}

func TestSourceString(t *testing.T) {
	cases := map[Source]string{
		{SourceRun, 7}:                           "run:7",
		{SourceShape, 1710}:                      "shape:1710",
		{SourceReject, uint64(ReasonDecode)}:     "reject:decode",
		{SourceReject, uint64(ReasonTooLarge)}:   "reject:too-large",
		{SourceReject, uint64(ReasonQuarantine)}: "reject:quarantine",
	}
	for src, want := range cases {
		if got := src.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", src, got, want)
		}
	}
}
