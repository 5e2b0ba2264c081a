package xrand

import (
	"math"
	"testing"
)

// geoTestPs spans the MemOpFrac/BurstRefs values the workload
// profiles actually use plus stress values at both extremes.
var geoTestPs = []float64{
	1.0, 0.999, 0.9, 0.5, 0.45, 0.42, 0.40, 0.38, 0.36, 0.35,
	0.34, 0.33, 0.32, 0.31, 0.30, 1.0 / 3, 0.25, 1.0 / 6, 0.125,
	0.05, 0.01, 0.003, 0.0005, // last ones exercise the fallback-only path
}

// TestGeoSamplerMatchesGeometricStream verifies, over long shared
// streams, that GeoSampler consumes and returns exactly what
// RNG.Geometric does.
func TestGeoSamplerMatchesGeometricStream(t *testing.T) {
	const draws = 200_000
	for _, p := range geoTestPs {
		g := NewGeoSampler(p)
		ra := New(0x1234_5678_9ABC_DEF0 ^ math.Float64bits(p))
		rb := New(0x1234_5678_9ABC_DEF0 ^ math.Float64bits(p))
		for i := 0; i < draws; i++ {
			want := ra.Geometric(p)
			got := g.Next(rb)
			if got != want {
				t.Fatalf("p=%v draw %d: GeoSampler=%d Geometric=%d", p, i, got, want)
			}
		}
		if ra.State() != rb.State() {
			t.Fatalf("p=%v: stream positions diverged", p)
		}
	}
}

// TestGeoSamplerBoundaries sweeps every numerator within twice the
// guard band of every table boundary (where table and formula could
// conceivably disagree) plus the extreme numerators, comparing the
// sampler's per-numerator mapping against the original formula.
func TestGeoSamplerBoundaries(t *testing.T) {
	for _, p := range geoTestPs {
		if p == 1 {
			continue
		}
		g := NewGeoSampler(p)
		logQ := math.Log(1 - p)
		ref := func(j uint64) int {
			u := float64(j) / (1 << 53)
			if u == 0 {
				u = math.SmallestNonzeroFloat64
			}
			return int(math.Log(u) / logQ)
		}
		check := func(j uint64) {
			if got, want := g.sample(j), ref(j); got != want {
				t.Fatalf("p=%v j=%d: sample=%d formula=%d", p, j, got, want)
			}
		}
		check(0)
		check(1)
		check(1<<53 - 1)
		// For large tables sweep a strided subset of bounds (always
		// including the first and last); the guard logic is identical
		// at every bound, so coverage does not depend on sweeping all
		// of them.
		stride := 1
		if len(g.bound) > 64 {
			stride = len(g.bound) / 64
		}
		picked := make([]uint64, 0, 68)
		for i := 0; i < len(g.bound); i += stride {
			picked = append(picked, g.bound[i])
		}
		if n := len(g.bound); n > 0 && (n-1)%stride != 0 {
			picked = append(picked, g.bound[n-1])
		}
		for _, b := range picked {
			lo := uint64(0)
			if b > 2*geoGuard {
				lo = b - 2*geoGuard
			}
			hi := b + 2*geoGuard
			if hi > 1<<53-1 {
				hi = 1<<53 - 1
			}
			for j := lo; j <= hi; j++ {
				check(j)
			}
		}
	}
}

func TestGeoSamplerPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGeoSampler(%v) did not panic", p)
				}
			}()
			NewGeoSampler(p)
		}()
	}
}

func TestCachedGeoReturnsSameSampler(t *testing.T) {
	a := CachedGeo(0.375)
	b := CachedGeo(0.375)
	if a != b {
		t.Fatal("CachedGeo returned distinct samplers for identical p")
	}
	if c := CachedGeo(0.25); c == a {
		t.Fatal("CachedGeo conflated distinct p values")
	}
}

// TestZipfBucketIndexMatchesFullSearch verifies the bucketed Zipf
// lookup returns exactly the first-CDF-entry >= u answer of the
// original full-range binary search.
func TestZipfBucketIndexMatchesFullSearch(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{
		{1, 0.9}, {2, 0.9}, {7, 0}, {100, 0.5}, {4096, 0.9}, {32768, 1.2},
	} {
		z := NewZipf(New(99), tc.n, tc.s)
		cdf := z.t.cdf
		full := func(u float64) int {
			lo, hi := 0, len(cdf)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cdf[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
		r := New(uint64(tc.n)*77 + 1)
		for i := 0; i < 100_000; i++ {
			u := r.Float64()
			if got, want := z.t.search(u), full(u); got != want {
				t.Fatalf("n=%d s=%v u=%v: bucketed=%d full=%d", tc.n, tc.s, u, got, want)
			}
		}
		// Exact bucket thresholds are the adversarial inputs.
		for b := 0; b < zipfBuckets; b++ {
			u := float64(b) / zipfBuckets
			if got, want := z.t.search(u), full(u); got != want {
				t.Fatalf("n=%d s=%v threshold u=%v: bucketed=%d full=%d", tc.n, tc.s, u, got, want)
			}
		}
	}
}

// TestZipfSequenceUnchanged pins the exact sample sequence against
// the pre-table implementation (golden values recorded from it).
func TestZipfSequenceUnchanged(t *testing.T) {
	z := NewZipf(New(42), 1000, 0.9)
	r := New(42)
	cdf := z.t.cdf
	for i := 0; i < 50_000; i++ {
		u := r.Float64()
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if got := z.Next(); got != lo {
			t.Fatalf("draw %d: Next=%d reference=%d", i, got, lo)
		}
	}
}

func TestZipfTableShared(t *testing.T) {
	a := NewZipf(New(1), 512, 0.9)
	b := NewZipf(New(2), 512, 0.9)
	if a.t != b.t {
		t.Fatal("identical (n, s) did not share a table")
	}
	c := NewZipf(New(3), 512, 0.8)
	if c.t == a.t {
		t.Fatal("distinct s shared a table")
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := New(7)
	r.Uint64()
	st := r.State()
	a := r.Uint64()
	r.SetState(st)
	if b := r.Uint64(); a != b {
		t.Fatalf("SetState did not restore the stream: %d != %d", a, b)
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Geometric(0.35)
	}
}

func BenchmarkGeoSampler(b *testing.B) {
	g := CachedGeo(0.35)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(r)
	}
}
