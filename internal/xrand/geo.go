package xrand

import (
	"math"
	"sync"
)

// GeoSampler draws geometric samples bit-identically to
// RNG.Geometric(p) but without evaluating math.Log per draw.
//
// Geometric(p) computes int(log(u)/log(1-p)) where u = j/2^53 and
// j = Uint64()>>11. For fixed p that expression is a non-increasing
// step function of the integer j, so the sampler precomputes, for
// every reachable result k, the smallest numerator bound[k] whose
// sample is k — each bound found by binary search over the original
// formula itself, not over an algebraic rearrangement. A draw then
// reduces to locating j among the bounds.
//
// math.Log is correctly rounded to within ~1 ulp but is not
// guaranteed monotone at that granularity, so exact step edges could
// in principle disagree with the table by a numerator or two. Draws
// landing within geoGuard numerators of any bound therefore fall
// back to evaluating the original formula, which makes the sampler's
// output equal to Geometric's by construction everywhere: far from
// edges the formula is provably flat across the guard band, and near
// edges the formula itself answers.
type GeoSampler struct {
	p    float64
	logQ float64 // log(1-p), the exact divisor Geometric uses
	// bound[k] is the smallest j in [1, 2^53) with sample(j) == k.
	// Non-increasing in k down to bound[maxK] == 1. nil when p == 1
	// (no draw happens) or when the table would be too large (tiny
	// p), in which case every draw takes the fallback.
	bound []uint64
	// kstart[j>>(53-geoIdxBits)] is the smallest k reachable from any
	// numerator in that bucket, so a draw starts its (short, usually
	// zero-step) upward scan there instead of binary-searching bound:
	// the scan's branches are far more predictable, which is what the
	// hot path lives or dies by.
	kstart []int32
	// direct[idx] is the one sample every numerator in bucket idx
	// yields, or noDirect when a bound or its geoGuard band reaches
	// into the bucket (or the bucket holds j == 0, or the sample does
	// not fit a byte). Bounds shrink geometrically, so all but a few
	// dozen of the 4096 buckets are uniform and a draw is one load
	// from a 4 KB table.
	direct []uint8
}

// noDirect marks a bucket the direct table does not answer.
const noDirect = 0xFF

// geoIdxBits is the width of the first-level index over numerators.
const geoIdxBits = 12

// geoGuard is the width (in 53-bit numerators) of the fallback band
// around each table boundary. math.Log errors are confined to a few
// ulps; 1024 numerators is orders of magnitude wider than any
// conceivable misrounding while keeping fallbacks vanishingly rare
// (~2e-13 per bound per draw).
const geoGuard = 1024

// geoMaxTable caps the table size; for p below ~0.002 the geometric
// tail is long enough that a table is not worth building and the
// sampler just evaluates the formula (still one math.Log per draw,
// exactly like Geometric).
const geoMaxTable = 1 << 14

var geoSamplers sync.Map // uint64 (Float64bits of p) -> *GeoSampler

// CachedGeo returns a shared GeoSampler for p. Samplers are immutable
// and cached globally for the life of the process, keyed by the exact
// bit pattern of p.
func CachedGeo(p float64) *GeoSampler {
	key := math.Float64bits(p)
	if v, ok := geoSamplers.Load(key); ok {
		return v.(*GeoSampler)
	}
	g := NewGeoSampler(p)
	v, _ := geoSamplers.LoadOrStore(key, g)
	return v.(*GeoSampler)
}

// NewGeoSampler builds a sampler for success probability p. It panics
// unless 0 < p <= 1, mirroring Geometric.
func NewGeoSampler(p float64) *GeoSampler {
	if p <= 0 || p > 1 {
		panic("xrand: GeoSampler requires 0 < p <= 1")
	}
	g := &GeoSampler{p: p}
	if p == 1 {
		return g
	}
	g.logQ = math.Log(1 - p)
	// The largest sample comes from the smallest numerator, j = 1.
	maxK := g.exact(1)
	if maxK < 0 || maxK >= geoMaxTable {
		return g // fallback-only sampler
	}
	g.bound = make([]uint64, maxK+1)
	for k := 0; k <= maxK; k++ {
		// Smallest j in [1, 2^53) with exact(j) <= k; exact is
		// non-increasing in j.
		lo, hi := uint64(1), uint64(1)<<53
		for lo < hi {
			mid := lo + (hi-lo)/2
			if g.exact(mid) <= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		g.bound[k] = lo
	}
	g.kstart = make([]int32, 1<<geoIdxBits)
	k := 0
	for idx := 1<<geoIdxBits - 1; idx >= 0; idx-- {
		jmax := uint64(idx+1)<<(53-geoIdxBits) - 1
		for jmax < g.bound[k] {
			k++ // terminates: bound[maxK] == 1 <= jmax
		}
		g.kstart[idx] = int32(k)
	}
	g.direct = make([]uint8, 1<<geoIdxBits)
	for idx := range g.direct {
		g.direct[idx] = noDirect
		jlo := uint64(idx) << (53 - geoIdxBits)
		jhi := jlo + 1<<(53-geoIdxBits) - 1
		// kstart is the answer for jhi (jhi < bound[k-1] by its
		// construction). The bucket is uniform iff jlo maps to the
		// same k and neither end enters a guard band: then sample
		// answers every numerator in it with k and never falls back.
		k := int(g.kstart[idx])
		if jlo == 0 || jlo < g.bound[k] || jlo-g.bound[k] < geoGuard ||
			(k > 0 && g.bound[k-1]-jhi <= geoGuard) || k >= noDirect {
			continue
		}
		g.direct[idx] = uint8(k)
	}
	return g
}

// exact evaluates the original Geometric formula for numerator j >= 1.
func (g *GeoSampler) exact(j uint64) int {
	u := float64(j) / (1 << 53)
	return int(math.Log(u) / g.logQ)
}

// fallback reproduces Geometric's draw handling for numerator j,
// including the j == 0 guard against log(0).
func (g *GeoSampler) fallback(j uint64) int {
	u := float64(j) / (1 << 53)
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / g.logQ)
}

// Next draws the next sample from r. It consumes exactly the same
// stream values as r.Geometric(g.p) and returns exactly the same
// results.
func (g *GeoSampler) Next(r *RNG) int {
	if g.p == 1 {
		return 0 // Geometric returns before drawing when p == 1
	}
	j := r.Uint64() >> 11
	if g.direct != nil {
		if d := g.direct[j>>(53-geoIdxBits)]; d != noDirect {
			return int(d)
		}
	}
	return g.sample(j)
}

// sample maps one 53-bit numerator to its geometric value.
func (g *GeoSampler) sample(j uint64) int {
	b := g.bound
	if b == nil {
		return g.fallback(j)
	}
	idx := j >> (53 - geoIdxBits)
	if d := g.direct[idx]; d != noDirect {
		return int(d)
	}
	if j == 0 {
		return g.fallback(j)
	}
	// Smallest k with j >= b[k]: start at the bucket's minimum k and
	// scan up (b is non-increasing and b[maxK] == 1 <= j, so the
	// scan terminates; kstart never overshoots because a smaller j
	// can only map to a larger k).
	k := int(g.kstart[idx])
	for j < b[k] {
		k++
	}
	if j-b[k] < geoGuard || (k > 0 && b[k-1]-j <= geoGuard) {
		return g.fallback(j)
	}
	return k
}
