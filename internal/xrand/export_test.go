package xrand

// Hooks for the external tests in profiles_test.go, which pin the
// samplers against the workload profiles' parameters (package trace
// imports xrand, so those tests cannot live in package xrand).

const (
	GeoGuard    = geoGuard
	GeoIdxBits  = geoIdxBits
	ZipfBuckets = zipfBuckets
)

// SampleNumerator maps one 53-bit numerator through the sampler.
func (g *GeoSampler) SampleNumerator(j uint64) int { return g.sample(j) }

// Bounds returns the sampler's step table (nil for fallback-only).
func (g *GeoSampler) Bounds() []uint64 { return g.bound }

// Search runs the bucketed CDF search for u.
func (z *Zipf) Search(u float64) int { return z.t.search(u) }

// CDF returns the sampler's shared CDF.
func (z *Zipf) CDF() []float64 { return z.t.cdf }
