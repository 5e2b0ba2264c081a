// Package core implements the ESTEEM controller — the paper's primary
// contribution (Mittal, Vetter, Li, "Improving Energy Efficiency of
// Embedded DRAM Caches for High-end Computing Systems", HPDC'14).
//
// The controller runs the energy-saving algorithm (the paper's
// Algorithm 1) at the end of every interval: from the leader-set
// hit-position histograms it decides, independently for every cache
// module, how many ways to keep powered on, then applies the decision
// to the cache (flushing the ways being disabled). It implements the
// paper's three decision rules:
//
//   - keep enough ways to cover at least an α fraction of the
//     module's hits (LRU-stack property: hits concentrate in the
//     most-recent positions);
//   - never drop below A_min ways (A_min=1 would make the LLC
//     direct-mapped);
//   - if a module shows non-LRU behaviour (hit counts that do not
//     decrease monotonically down the recency stack, at least A/4
//     anomalies), turn off at most one way (keep >= A-1).
package core

import (
	"fmt"

	"repro/internal/cache"
)

// Config holds the ESTEEM algorithm parameters (Section 7 defaults).
type Config struct {
	// Alpha is the hit-coverage threshold α (paper default 0.97).
	Alpha float64
	// AMin is the minimum number of ways kept on (paper default 3).
	AMin int
	// DisableNonLRUGuard turns off Algorithm 1's non-LRU protection
	// (lines 4–13, 21–23). Not part of the paper's configuration —
	// provided for the ablation benches listed in DESIGN.md.
	DisableNonLRUGuard bool
	// MaxWayDelta, when positive, limits how many ways a module's
	// configuration may change per interval. This implements the
	// extension the paper names as future work in Section 7.2
	// ("restricting the maximum number of change in associativity in
	// each interval"), damping reconfiguration oscillation and its
	// flush/refill overhead. 0 (the paper's algorithm) means
	// unlimited.
	MaxWayDelta int
}

// DefaultConfig returns the parameter values used for the paper's
// headline results.
func DefaultConfig() Config { return Config{Alpha: 0.97, AMin: 3} }

// Validate checks the configuration against an associativity A.
func (c Config) Validate(assoc int) error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v out of (0,1]", c.Alpha)
	}
	if c.AMin < 1 || c.AMin > assoc {
		return fmt.Errorf("core: A_min %d out of [1,%d]", c.AMin, assoc)
	}
	if c.MaxWayDelta < 0 {
		return fmt.Errorf("core: negative MaxWayDelta")
	}
	return nil
}

// IsNonLRU reports whether a module's hit-position histogram shows
// non-LRU behaviour per the paper's test: count positions i where
// hits[i] < hits[i+1]; the module is non-LRU when the count reaches
// A/4 (integer division, as in Algorithm 1 line 11).
func IsNonLRU(hits []uint64) bool {
	anomalies := 0
	for i := 0; i+1 < len(hits); i++ {
		if hits[i] < hits[i+1] {
			anomalies++
		}
	}
	return anomalies >= len(hits)/4
}

// DecideModule runs Algorithm 1 for a single module: given the hits
// at each LRU position (hits[0] = MRU), it returns the number of ways
// to keep active. It panics on an invalid config, which Controller
// construction rules out.
func DecideModule(hits []uint64, cfg Config) int {
	a := len(hits)
	if err := cfg.Validate(a); err != nil {
		panic(err)
	}
	nonLRU := !cfg.DisableNonLRUGuard && IsNonLRU(hits)
	var tot uint64
	for _, h := range hits {
		tot += h
	}
	threshold := cfg.Alpha * float64(tot)
	var acc uint64
	for i := 0; i < a; i++ {
		acc += hits[i]
		if float64(acc) >= threshold {
			n := max(cfg.AMin, i+1)
			if nonLRU {
				// Algorithm 1 line 22: for non-LRU modules at most
				// one way is turned off. The paper's pseudocode
				// overwrites the A_min clamp here (relevant only in
				// the degenerate case A_min > A-1), and we follow it.
				n = max(a-1, i+1)
			}
			return n
		}
	}
	// Unreachable for tot > 0 since acc reaches tot; for tot == 0 the
	// first iteration already satisfied 0 >= 0. Kept for safety.
	return a
}

// Decision is the controller's output for one interval.
//
// ActiveWays and NonLRU are the controller's own buffers, reused by
// every EndInterval: they are valid until the next call, and a caller
// that keeps them longer must copy them.
type Decision struct {
	// ActiveWays[m] is the chosen way count for module m.
	ActiveWays []int
	// NonLRU[m] records whether module m tripped the non-LRU test.
	NonLRU []bool
	// LinesTransitioned is N_L: line frames powered on or off by
	// applying this decision (charged at E_χ each by the energy
	// model).
	LinesTransitioned int
	// Invalidated and Writebacks count the lines flushed from
	// disabled ways and how many of those were dirty.
	Invalidated int
	Writebacks  int
}

// ReconfigurableCache is the slice of the cache API the controller
// needs; *cache.Cache satisfies it.
type ReconfigurableCache interface {
	NumModules() int
	SetsPerModule() int
	NumLeaderSets() int
	NumSets() int
	IsLeader(setIdx int) bool
	HitPositions(m int) []uint64
	ActiveWays(m int) int
	SetActiveWays(m, n int) (invalidated, writebacks int)
	ResetInterval()
	Params() cache.Params
}

// The real cache must satisfy the interface.
var _ ReconfigurableCache = (*cache.Cache)(nil)

// Controller drives ESTEEM reconfiguration of one cache.
type Controller struct {
	cfg   Config
	cache ReconfigurableCache
	assoc int
	// followerSets[m] counts module m's non-leader sets. Leader sets
	// never change, so NewController counts them once.
	followerSets []int
	// ways and nonLRU back every Decision's slices.
	ways   []int
	nonLRU []bool

	// cumulative statistics
	intervals         int
	linesTransitioned uint64
	writebacks        uint64
	invalidated       uint64
	nonLRUEvents      uint64
}

// NewController validates cfg against the cache's associativity and
// returns a controller. The cache should have been built with leader
// sets (SamplingRatio > 0); without them the histograms are empty and
// the controller will always shrink to A_min — it returns an error to
// catch that misconfiguration.
func NewController(c ReconfigurableCache, cfg Config) (*Controller, error) {
	assoc := c.Params().Assoc
	if err := cfg.Validate(assoc); err != nil {
		return nil, err
	}
	if c.NumLeaderSets() == 0 {
		return nil, fmt.Errorf("core: cache %q has no leader sets; ESTEEM needs SamplingRatio > 0", c.Params().Name)
	}
	m := c.NumModules()
	return &Controller{
		cfg: cfg, cache: c, assoc: assoc,
		followerSets: followerSetsPerModule(c),
		ways:         make([]int, m),
		nonLRU:       make([]bool, m),
	}, nil
}

// Config returns the controller's algorithm parameters.
func (ct *Controller) Config() Config { return ct.cfg }

// EndInterval consumes the interval's profiling data, runs Algorithm 1
// for every module, applies the per-module decisions to the cache, and
// resets the interval histograms. It returns the decision so the
// simulator can charge reconfiguration energy and writeback traffic;
// the decision's slices are overwritten by the next call.
func (ct *Controller) EndInterval() Decision {
	d := Decision{ActiveWays: ct.ways, NonLRU: ct.nonLRU}
	for mod := range d.ActiveWays {
		hits := ct.cache.HitPositions(mod)
		n := DecideModule(hits, ct.cfg)
		if ct.cfg.MaxWayDelta > 0 {
			// Future-work extension (Section 7.2): damp per-interval
			// configuration swings to bound flush/refill overhead.
			prev := ct.cache.ActiveWays(mod)
			if n > prev+ct.cfg.MaxWayDelta {
				n = prev + ct.cfg.MaxWayDelta
			} else if n < prev-ct.cfg.MaxWayDelta {
				n = prev - ct.cfg.MaxWayDelta
			}
		}
		d.ActiveWays[mod] = n
		d.NonLRU[mod] = IsNonLRU(hits)
		if d.NonLRU[mod] {
			ct.nonLRUEvents++
		}
		old := ct.cache.ActiveWays(mod)
		if n != old {
			// Every follower-set line frame in the toggled ways
			// changes power state (N_L in the energy model).
			delta := n - old
			if delta < 0 {
				delta = -delta
			}
			d.LinesTransitioned += delta * ct.followerSets[mod]
		}
		inv, wb := ct.cache.SetActiveWays(mod, n)
		d.Invalidated += inv
		d.Writebacks += wb
	}
	ct.cache.ResetInterval()
	ct.intervals++
	ct.linesTransitioned += uint64(d.LinesTransitioned)
	ct.writebacks += uint64(d.Writebacks)
	ct.invalidated += uint64(d.Invalidated)
	return d
}

// followerSetsPerModule counts the non-leader sets in each module.
func followerSetsPerModule(c ReconfigurableCache) []int {
	m := c.NumModules()
	spm := c.SetsPerModule()
	out := make([]int, m)
	for mod := 0; mod < m; mod++ {
		leaders := 0
		for s := mod * spm; s < (mod+1)*spm; s++ {
			if c.IsLeader(s) {
				leaders++
			}
		}
		out[mod] = spm - leaders
	}
	return out
}

// Stats is the controller's cumulative activity record.
type Stats struct {
	Intervals         int
	LinesTransitioned uint64
	Writebacks        uint64
	Invalidated       uint64
	NonLRUEvents      uint64
}

// Stats returns cumulative controller statistics.
func (ct *Controller) Stats() Stats {
	return Stats{
		Intervals:         ct.intervals,
		LinesTransitioned: ct.linesTransitioned,
		Writebacks:        ct.writebacks,
		Invalidated:       ct.invalidated,
		NonLRUEvents:      ct.nonLRUEvents,
	}
}

// OverheadPercent evaluates the paper's Equation (1): the counter
// storage overhead of ESTEEM as a percentage of L2 capacity, for a
// cache with S sets, associativity A, M modules, block size B bits and
// tag size G bits, assuming 40-bit counters.
func OverheadPercent(sets, assoc, modules, blockBits, tagBits int) float64 {
	counters := (2*assoc + 1) * modules * 40
	capacity := sets * assoc * (blockBits + tagBits)
	return float64(counters) / float64(capacity) * 100
}
