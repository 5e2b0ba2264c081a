package cache

import (
	"testing"

	"repro/internal/xrand"
)

// benchL2 builds the paper's single-core L2: 4 MB, 16-way, 64 B
// lines, 8 modules, 4 banks, leader sets every 64th set.
func benchL2() *Cache {
	return MustNew(Params{
		Name: "L2", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64,
		Latency: 12, Modules: 8, SamplingRatio: 64, Banks: 4,
	})
}

// benchAddrs pre-generates a deterministic address stream with a hot
// working set (hits) and a cold tail (misses), so the benchmark
// exercises both probe paths without timing the generator.
func benchAddrs(n int) []Addr {
	rng := xrand.New(99)
	addrs := make([]Addr, n)
	for i := range addrs {
		if rng.Float64() < 0.8 {
			// Hot: 2 MB working set, fits the 4 MB cache.
			addrs[i] = Addr(rng.Uint64n(2<<20) &^ 63)
		} else {
			// Cold: 1 GB region, mostly misses.
			addrs[i] = Addr(1<<32 + rng.Uint64n(1<<30)&^63)
		}
	}
	return addrs
}

// BenchmarkCacheAccess measures the demand-access hot path (probe,
// LRU promotion, fill, victim selection) in ns/op and allocs/op.
func BenchmarkCacheAccess(b *testing.B) {
	c := benchL2()
	addrs := benchAddrs(1 << 16)
	// Warm the cache so steady-state hit/miss mix is realistic.
	for _, a := range addrs {
		c.Access(a, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i&7 == 0)
	}
}

// BenchmarkCacheAccessReconfigured is the same stream against a cache
// shrunk to 4 active ways per module — the state ESTEEM converges to
// on compact workloads, where disabled-way skipping dominates probes.
func BenchmarkCacheAccessReconfigured(b *testing.B) {
	c := benchL2()
	for m := 0; m < c.NumModules(); m++ {
		c.SetActiveWays(m, 4)
	}
	addrs := benchAddrs(1 << 16)
	for _, a := range addrs {
		c.Access(a, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i&7 == 0)
	}
}

// BenchmarkCacheNew measures cache construction, which every
// simulation job in a sweep pays before its first access.
func BenchmarkCacheNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if benchL2() == nil {
			b.Fatal("nil cache")
		}
	}
}

// BenchmarkActiveFraction measures the per-interval F_A computation.
func BenchmarkActiveFraction(b *testing.B) {
	c := benchL2()
	for m := 0; m < c.NumModules(); m += 2 {
		c.SetActiveWays(m, 5)
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = c.ActiveFraction()
	}
	if sink <= 0 || sink > 1 {
		b.Fatalf("active fraction %v out of range", sink)
	}
}

// BenchmarkL1MRUHit times an L1 hit on the set's MRU way — the
// commonest reference outcome in a simulation — through AccessInto
// and through the AccessMRU fast path the simulator tries first.
func BenchmarkL1MRUHit(b *testing.B) {
	// Eight words in each of 64 lines, visited line by line: every
	// access after a line's first is an MRU hit.
	addrs := make([]Addr, 0, 512)
	for line := 0; line < 64; line++ {
		for w := 0; w < 8; w++ {
			addrs = append(addrs, Addr(line*64+w*8))
		}
	}
	newL1 := func() *Cache {
		c := MustNew(Params{Name: "L1D", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, Latency: 2, Modules: 1, Banks: 1})
		for _, a := range addrs {
			c.Access(a, false)
		}
		return c
	}
	b.Run("AccessInto", func(b *testing.B) {
		c := newL1()
		var res AccessResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessInto(addrs[i&511], i&7 == 0, &res)
		}
	})
	b.Run("AccessMRU", func(b *testing.B) {
		c := newL1()
		var res AccessResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if a := addrs[i&511]; !c.AccessMRU(a, i&7 == 0) {
				c.AccessInto(a, i&7 == 0, &res)
			}
		}
	})
}
