package xrand_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

const golden = 0x9E3779B97F4A7C15

// mulInverse returns the inverse of odd c modulo 2^64 (Newton's
// iteration doubles the correct low bits each step).
func mulInverse(c uint64) uint64 {
	x := c
	for i := 0; i < 6; i++ {
		x *= 2 - c*x
	}
	return x
}

// unshift inverts y = x ^ (x >> k).
func unshift(y uint64, k uint) uint64 {
	x := y
	for i := uint(0); i < 64/k+1; i++ {
		x = y ^ x>>k
	}
	return x
}

// rngYielding returns an RNG whose next Uint64()>>11 is j, by running
// splitmix64's output mixer backwards. It lets the tests feed chosen
// numerators to RNG.Geometric itself.
func rngYielding(t *testing.T, j uint64) *xrand.RNG {
	z := unshift(j<<11, 31) * mulInverse(0x94D049BB133111EB)
	z = unshift(z, 27) * mulInverse(0xBF58476D1CE4E5B9)
	z = unshift(z, 30)
	r := xrand.New(0)
	r.SetState(z - golden)
	probe := *r
	if got := probe.Uint64() >> 11; got != j {
		t.Fatalf("rngYielding(%d) yields %d", j, got)
	}
	return r
}

// profileGeoPs lists every distinct geometric parameter the workload
// profiles draw with: MemOpFrac for gaps, 1/BurstRefs for bursts.
func profileGeoPs() []float64 {
	seen := map[float64]bool{}
	var ps []float64
	add := func(p float64) {
		if !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	for _, p := range trace.Profiles() {
		add(p.MemOpFrac)
		if p.BurstRefs > 1 {
			add(1 / p.BurstRefs)
		}
	}
	return ps
}

// TestGeoSamplerProfileEdges compares the sampler with RNG.Geometric
// at every bucket edge of the direct table and at every step bound
// and guard-band edge, for each geometric parameter the profiles use.
func TestGeoSamplerProfileEdges(t *testing.T) {
	const top = uint64(1)<<53 - 1
	for _, p := range profileGeoPs() {
		g := xrand.NewGeoSampler(p)
		var js []uint64
		for idx := uint64(0); idx <= 1<<xrand.GeoIdxBits; idx++ {
			e := idx << (53 - xrand.GeoIdxBits)
			js = append(js, e-1, e, e+1)
		}
		for _, b := range g.Bounds() {
			for _, d := range []uint64{0, 1, xrand.GeoGuard - 1, xrand.GeoGuard, xrand.GeoGuard + 1} {
				js = append(js, b-d, b+d)
			}
		}
		for _, j := range js {
			if j > top {
				continue // below-zero wraps and the edge past 2^53
			}
			want := rngYielding(t, j).Geometric(p)
			if got := g.SampleNumerator(j); got != want {
				t.Fatalf("p=%v j=%d: sampler %d, Geometric %d", p, j, got, want)
			}
			if got := g.Next(rngYielding(t, j)); got != want {
				t.Fatalf("p=%v j=%d: Next %d, Geometric %d", p, j, got, want)
			}
		}
	}
}

// TestZipfProfileIndexMatchesFullSearch compares the bucketed Zipf
// search with a full-range binary search for every (n, s) the
// profiles use, h264ref's phase sizes included, at every bucket
// threshold, around every CDF entry, and at random points.
func TestZipfProfileIndexMatchesFullSearch(t *testing.T) {
	type key struct {
		n int
		s float64
	}
	seen := map[key]bool{}
	for _, p := range trace.Profiles() {
		for _, kb := range append([]int{p.HotKB}, p.PhaseHotKB...) {
			k := key{kb * 1024 / 64, p.ZipfS}
			if seen[k] {
				continue
			}
			seen[k] = true
			z := xrand.NewZipf(xrand.New(1), k.n, k.s)
			cdf := z.CDF()
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.Search(u), sort.SearchFloat64s(cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: bucketed %d, full %d", k.n, k.s, u, got, want)
				}
			}
			for b := 0; b < xrand.ZipfBuckets; b++ {
				u := float64(b) / xrand.ZipfBuckets
				check(u)
				check(math.Nextafter(u, -1))
			}
			for _, c := range cdf {
				check(c)
				check(math.Nextafter(c, -1))
				check(math.Nextafter(c, 2))
			}
			r := xrand.New(uint64(k.n))
			for i := 0; i < 20_000; i++ {
				check(r.Float64())
			}
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct (n, s) pairs; profile table not read?", len(seen))
	}
}
