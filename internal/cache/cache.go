// Package cache implements the set-associative cache model underlying
// both the L1 caches and the reconfigurable eDRAM L2 cache of the
// ESTEEM paper (Mittal, Vetter, Li — HPDC'14).
//
// The L2-specific machinery follows Sections 3–5 of the paper:
//
//   - The sets are partitioned into M contiguous "modules"; each module
//     has its own count of powered-on ("active") ways, controlled by
//     per-way disable bits (selective-ways reconfiguration).
//   - Every Rs-th set is a "leader" set: it always keeps all ways
//     active and never undergoes reconfiguration. Leader sets double
//     as the auxiliary tag directory (ATD) embedded in the main tag
//     directory; hit-position (LRU recency) histograms are collected
//     from leader sets only.
//   - On shrinking a module, clean lines in the disabled ways are
//     dropped and dirty lines are written back (counted, so the
//     simulator can charge main-memory traffic and energy).
//
// Replacement is true LRU, as in the paper's simulated hierarchy.
//
// Tag state is stored struct-of-arrays: one flat tag word array
// (way-major within each set), one valid and one dirty bitset word
// per set (interleaved so both land on the same cache line), and one
// flat byte array of LRU recency stacks. A set probe therefore reads
// one or two cache lines of tags plus a single bitset word, instead
// of striding across per-line structs. Two invariants make the
// bitset probe sound:
//
//   - valid ⟹ active: a disabled way never holds a valid line
//     (SetActiveWays flushes follower ways on shrink; leader sets are
//     always fully active), so probing need not consult the active-way
//     count on the hit path.
//   - valid tags are unique within a set (fills happen only on miss),
//     so probing ways in bit order finds the same line a recency-order
//     probe would.
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Params configures a cache instance.
type Params struct {
	// Name is used in error messages and reports (e.g. "L2").
	Name string
	// SizeBytes is the total capacity. Must be divisible by
	// LineBytes*Assoc into a power-of-two number of sets.
	SizeBytes int
	// Assoc is the number of ways per set.
	Assoc int
	// LineBytes is the cache line (block) size; the paper uses 64 B.
	LineBytes int
	// Latency is the access latency in cycles (informational; the
	// simulator charges it).
	Latency int
	// Modules is the number of reconfiguration modules M. Sets are
	// split into M contiguous ranges. Use 1 for non-reconfigurable
	// caches (L1). Must divide the number of sets.
	Modules int
	// SamplingRatio is Rs: one of every Rs sets is a leader set.
	// 0 disables leader sets entirely (L1 caches).
	SamplingRatio int
	// Banks is the number of banks lines are interleaved across; the
	// paper's eDRAM L2 has 4. Use 1 when banking is irrelevant.
	Banks int
	// TrackWear enables per-frame write-wear counters (ReRAM
	// endurance modelling): every write hit and every fill charges
	// one write to the written frame.
	TrackWear bool
	// WearLevelPeriod, when positive, performs an intra-set
	// wear-levelling remap every WearLevelPeriod-th write to a set:
	// the contents of the set's most- and least-worn active frames
	// are swapped (tags, valid/dirty bits and recency positions move;
	// wear stays with the physical frame), so hot lines rotate onto
	// cold frames without changing any externally visible cache
	// behaviour. Requires TrackWear. Remaps fire no Observer events:
	// wear-tracked technologies have no refresh clock, so no
	// observer-bearing refresh policy can be attached.
	WearLevelPeriod int
}

// validate checks the parameter combination and derives the set count.
func (p Params) validate() (sets int, err error) {
	if p.SizeBytes <= 0 || p.Assoc <= 0 || p.LineBytes <= 0 {
		return 0, fmt.Errorf("cache %s: size, assoc and line size must be positive", p.Name)
	}
	if p.SizeBytes%(p.LineBytes*p.Assoc) != 0 {
		return 0, fmt.Errorf("cache %s: size %d not divisible by line*assoc", p.Name, p.SizeBytes)
	}
	sets = p.SizeBytes / (p.LineBytes * p.Assoc)
	if bits.OnesCount(uint(sets)) != 1 {
		return 0, fmt.Errorf("cache %s: set count %d is not a power of two", p.Name, sets)
	}
	if bits.OnesCount(uint(p.LineBytes)) != 1 {
		return 0, fmt.Errorf("cache %s: line size %d is not a power of two", p.Name, p.LineBytes)
	}
	if p.Modules <= 0 {
		return 0, fmt.Errorf("cache %s: modules must be >= 1", p.Name)
	}
	if sets%p.Modules != 0 {
		return 0, fmt.Errorf("cache %s: %d sets not divisible into %d modules", p.Name, sets, p.Modules)
	}
	if p.SamplingRatio < 0 {
		return 0, fmt.Errorf("cache %s: negative sampling ratio", p.Name)
	}
	if p.Banks <= 0 {
		return 0, fmt.Errorf("cache %s: banks must be >= 1", p.Name)
	}
	if p.Assoc > 64 {
		return 0, fmt.Errorf("cache %s: associativity %d > 64 unsupported", p.Name, p.Assoc)
	}
	if p.WearLevelPeriod < 0 {
		return 0, fmt.Errorf("cache %s: negative wear-level period", p.Name)
	}
	if p.WearLevelPeriod > 0 && !p.TrackWear {
		return 0, fmt.Errorf("cache %s: wear-levelling requires wear tracking", p.Name)
	}
	return sets, nil
}

// AccessResult reports what happened on one cache access.
type AccessResult struct {
	// Hit is true if the line was present in an active way.
	Hit bool
	// Way is the physical way that was hit or filled.
	Way int
	// LRUPos is the LRU-stack position of the hit (0 = MRU); -1 on a
	// miss.
	LRUPos int
	// Set and Bank identify where the access landed.
	Set, Bank int
	// Module is the reconfiguration module of the set.
	Module int
	// Leader is true if the set is a leader (profiling) set.
	Leader bool
	// WritebackVictim is true when the fill evicted a dirty line that
	// must be written back to the next level; VictimAddr is then the
	// evicted line's address.
	WritebackVictim bool
	VictimAddr      Addr
}

// Counters is a snapshot of access statistics.
type Counters struct {
	Hits       uint64
	WriteHits  uint64 // the subset of Hits that were writes
	Misses     uint64
	Writebacks uint64 // dirty evictions (demand misses + reconfiguration flushes)
	Fills      uint64
}

// Accesses returns hits + misses.
func (c Counters) Accesses() uint64 { return c.Hits + c.Misses }

// Observer receives line lifecycle events; refresh policies (e.g.
// Refrint RPV) use it to track per-line touch phases without the cache
// knowing about them.
type Observer interface {
	// OnTouch fires on every hit or fill of (set, way).
	OnTouch(set, way int)
	// OnInvalidate fires whenever a line becomes invalid (eviction or
	// reconfiguration flush).
	OnInvalidate(set, way int)
}

// Cache is a single-level set-associative cache.
type Cache struct {
	p          Params
	numSets    int
	assoc      int
	setsPerMod int
	lineShift  uint
	tagShift   uint
	setMask    uint64

	// Struct-of-arrays tag store. tags[set*assoc+way] is the tag of
	// that frame; vd[2*set] and vd[2*set+1] are the set's valid and
	// dirty bitsets (bit w = way w); order[set*assoc+pos] is the way
	// at recency position pos (0 = MRU).
	tags  []uint64
	vd    []uint64
	order []uint8

	// Per-set lookups precomputed at construction so the access hot
	// path avoids div/mod per reference.
	setModule []int32
	setBank   []int32
	setLeader []bool

	// activeWays[m] is the number of powered-on ways in module m;
	// ways [0, activeWays[m]) are active in follower sets.
	activeWays []int
	// followersPerMod[m] is the number of non-leader sets in module m
	// (leader sets never reconfigure, so they are constant).
	followersPerMod []int
	// activeLines is the configured powered-on line count, maintained
	// incrementally by SetActiveWays so ActiveFraction is O(1) instead
	// of rescanning every set each interval.
	activeLines int

	// validByBank[b] counts valid lines whose set maps to bank b.
	// Because disabled ways are flushed, every valid line is in an
	// active way (or in a leader set, which is always fully active).
	validByBank []int

	// hitPos[m][pos] counts leader-set hits in module m at LRU
	// position pos since the last ResetInterval; hitBacking is the
	// shared backing array (also the checkpoint unit).
	hitPos     [][]uint64
	hitBacking []uint64

	total    Counters // since construction
	interval Counters // since last ResetInterval

	// wear[set*assoc+way] counts writes charged to the physical frame
	// (write hits plus fills); nil unless Params.TrackWear, so the
	// eDRAM hot path pays nothing for it.
	wear []uint64
	// setWrites[set] counts writes to the set, driving the
	// wear-levelling trigger; nil unless WearLevelPeriod > 0.
	setWrites []uint64
	// wearSwaps counts wear-levelling remaps performed.
	wearSwaps uint64

	observer Observer
}

// New builds a cache from p. All ways start active and all lines
// invalid.
func New(p Params) (*Cache, error) {
	numSets, err := p.validate()
	if err != nil {
		return nil, err
	}
	c := &Cache{
		p:          p,
		numSets:    numSets,
		assoc:      p.Assoc,
		setsPerMod: numSets / p.Modules,
		lineShift:  uint(bits.TrailingZeros(uint(p.LineBytes))),
		setMask:    uint64(numSets - 1),
	}
	c.tagShift = c.lineShift + uint(bits.TrailingZeros(uint(numSets)))
	// Shared backing arrays instead of per-set allocations: sweeps
	// construct thousands of caches, and fine-grained slices were
	// >95% of a simulation job's allocations.
	u64s := make([]uint64, numSets*p.Assoc+2*numSets+p.Modules*p.Assoc)
	c.tags = u64s[: numSets*p.Assoc : numSets*p.Assoc]
	c.vd = u64s[numSets*p.Assoc : numSets*p.Assoc+2*numSets : numSets*p.Assoc+2*numSets]
	c.hitBacking = u64s[numSets*p.Assoc+2*numSets:]
	c.order = make([]uint8, numSets*p.Assoc)
	i32s := make([]int32, 2*numSets)
	c.setModule = i32s[:numSets:numSets]
	c.setBank = i32s[numSets:]
	c.setLeader = make([]bool, numSets)
	ints := make([]int, 2*p.Modules+p.Banks)
	c.activeWays = ints[:p.Modules:p.Modules]
	c.followersPerMod = ints[p.Modules : 2*p.Modules : 2*p.Modules]
	c.validByBank = ints[2*p.Modules:]
	c.hitPos = make([][]uint64, p.Modules)
	for s := 0; s < numSets; s++ {
		base := s * p.Assoc
		for w := 0; w < p.Assoc; w++ {
			c.order[base+w] = uint8(w)
		}
		c.setModule[s] = int32(s / c.setsPerMod)
		c.setBank[s] = int32(s % p.Banks)
		c.setLeader[s] = p.SamplingRatio > 0 && s%p.SamplingRatio == 0
		if !c.setLeader[s] {
			c.followersPerMod[s/c.setsPerMod]++
		}
	}
	for m := range c.activeWays {
		c.activeWays[m] = p.Assoc
		c.hitPos[m] = c.hitBacking[m*p.Assoc : (m+1)*p.Assoc : (m+1)*p.Assoc]
	}
	c.activeLines = numSets * p.Assoc
	if p.TrackWear {
		c.wear = make([]uint64, numSets*p.Assoc)
		if p.WearLevelPeriod > 0 {
			c.setWrites = make([]uint64, numSets)
		}
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and fixed configs.
func MustNew(p Params) *Cache {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// SetObserver installs an observer for line lifecycle events.
// A nil observer disables notifications.
func (c *Cache) SetObserver(o Observer) { c.observer = o }

// Params returns the construction parameters.
func (c *Cache) Params() Params { return c.p }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// NumModules returns M.
func (c *Cache) NumModules() int { return c.p.Modules }

// SetsPerModule returns S/M.
func (c *Cache) SetsPerModule() int { return c.setsPerMod }

// SetIndex maps an address to its set.
func (c *Cache) SetIndex(a Addr) int {
	return int((uint64(a) >> c.lineShift) & c.setMask)
}

// tagOf extracts the tag for an address.
func (c *Cache) tagOf(a Addr) uint64 {
	return uint64(a) >> c.tagShift
}

// lineAddr reconstructs the base address of the line with the given
// tag in the given set (inverse of SetIndex/tagOf).
func (c *Cache) lineAddr(setIdx int, tag uint64) Addr {
	return Addr((tag*uint64(c.numSets) + uint64(setIdx)) << c.lineShift)
}

// ModuleOf returns the module of a set index.
func (c *Cache) ModuleOf(setIdx int) int { return int(c.setModule[setIdx]) }

// BankOf returns the bank a set maps to (low-order interleaving).
func (c *Cache) BankOf(setIdx int) int { return int(c.setBank[setIdx]) }

// IsLeader reports whether a set is a leader (profiling) set.
func (c *Cache) IsLeader(setIdx int) bool { return c.setLeader[setIdx] }

// NumLeaderSets returns the number of leader sets.
func (c *Cache) NumLeaderSets() int {
	if c.p.SamplingRatio <= 0 {
		return 0
	}
	return (c.numSets + c.p.SamplingRatio - 1) / c.p.SamplingRatio
}

// waysFor returns how many ways are active for a given set.
func (c *Cache) waysFor(setIdx int) int {
	if c.setLeader[setIdx] {
		return c.p.Assoc
	}
	return c.activeWays[c.setModule[setIdx]]
}

// waysMask returns the bitmask of ways [0, n).
func waysMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// Access performs a read (write=false) or write (write=true) to addr
// and updates replacement and statistics. On a miss the line is filled
// (allocate-on-miss for both reads and writes, matching a write-back,
// write-allocate LLC).
func (c *Cache) Access(addr Addr, write bool) AccessResult {
	var res AccessResult
	c.AccessInto(addr, write, &res)
	return res
}

// AccessInto is Access writing its result through res instead of
// returning it by value; the simulator's per-reference loop uses it to
// avoid copying the result struct on every access.
func (c *Cache) AccessInto(addr Addr, write bool, res *AccessResult) {
	setIdx := c.SetIndex(addr)
	tag := c.tagOf(addr)
	assoc := c.assoc
	base := setIdx * assoc
	tags := c.tags[base : base+assoc : base+assoc]
	order := c.order[base : base+assoc : base+assoc]
	valid := c.vd[2*setIdx]
	*res = AccessResult{
		Set:    setIdx,
		Bank:   int(c.setBank[setIdx]),
		Module: int(c.setModule[setIdx]),
		Leader: c.setLeader[setIdx],
		LRUPos: -1,
	}

	// MRU fast path: temporal locality makes the most-recently-used
	// way the common hit, and hitting it skips both the bitset walk
	// and the recency promotion (position 0 is already MRU).
	if w := int(order[0]); valid>>uint(w)&1 != 0 && tags[w] == tag {
		res.Hit = true
		res.Way = w
		res.LRUPos = 0
		if write {
			c.vd[2*setIdx+1] |= 1 << uint(w)
		}
		c.total.Hits++
		c.interval.Hits++
		if res.Leader {
			c.hitPos[res.Module][0]++
		}
		if c.observer != nil {
			c.observer.OnTouch(setIdx, w)
		}
		if write {
			c.total.WriteHits++
			c.interval.WriteHits++
			if c.wear != nil {
				c.recordWrite(setIdx, w)
			}
		}
		return
	}

	// Probe the valid ways by bitset. valid ⟹ active and valid tags
	// are unique per set (see the package comment), so this finds
	// exactly the line a recency-order walk over active ways would.
	for m := valid; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if tags[w] != tag {
			continue
		}
		// The LRU position — what Algorithm 1's nL2Hit indexes by —
		// is the way's index in the recency stack.
		pos := 0
		for p, ow := range order {
			if int(ow) == w {
				pos = p
				break
			}
		}
		res.Hit = true
		res.Way = w
		res.LRUPos = pos
		if write {
			c.vd[2*setIdx+1] |= 1 << uint(w)
		}
		promote(order, pos)
		c.total.Hits++
		c.interval.Hits++
		if res.Leader {
			c.hitPos[res.Module][pos]++
		}
		if c.observer != nil {
			c.observer.OnTouch(setIdx, w)
		}
		if write {
			c.total.WriteHits++
			c.interval.WriteHits++
			if c.wear != nil {
				c.recordWrite(setIdx, w)
			}
		}
		return
	}

	// Miss: choose a victim among active ways — the lowest-numbered
	// invalid active way if one exists (so fills pack into low ways,
	// the ones selective-ways keeps enabled), otherwise the LRU
	// active way.
	c.total.Misses++
	c.interval.Misses++
	nActive := assoc
	if !res.Leader {
		nActive = c.activeWays[res.Module]
	}
	var w, victimPos int
	if inv := ^valid & waysMask(nActive); inv != 0 {
		w = bits.TrailingZeros64(inv)
		victimPos = 0
		for p, ow := range order {
			if int(ow) == w {
				victimPos = p
				break
			}
		}
	} else {
		victimPos = -1
		for pos := assoc - 1; pos >= 0; pos-- {
			if int(order[pos]) < nActive {
				victimPos = pos
				break
			}
		}
		if victimPos < 0 {
			// No active ways at all — cannot happen with A_min >= 1, but
			// guard against misconfiguration rather than corrupt state.
			panic(fmt.Sprintf("cache %s: set %d has zero active ways", c.p.Name, setIdx))
		}
		w = int(order[victimPos])
	}
	bit := uint64(1) << uint(w)
	if valid&bit != 0 {
		if c.vd[2*setIdx+1]&bit != 0 {
			res.WritebackVictim = true
			res.VictimAddr = c.lineAddr(setIdx, tags[w])
			c.total.Writebacks++
			c.interval.Writebacks++
		}
		c.validByBank[res.Bank]--
		if c.observer != nil {
			c.observer.OnInvalidate(setIdx, w)
		}
	}
	tags[w] = tag
	c.vd[2*setIdx] |= bit
	if write {
		c.vd[2*setIdx+1] |= bit
	} else {
		c.vd[2*setIdx+1] &^= bit
	}
	c.validByBank[res.Bank]++
	c.total.Fills++
	c.interval.Fills++
	res.Way = w
	promote(order, victimPos)
	if c.observer != nil {
		c.observer.OnTouch(setIdx, w)
	}
	if c.wear != nil {
		// A fill writes the frame regardless of the access direction.
		c.recordWrite(setIdx, w)
	}
}

// recordWrite charges one write to the physical frame (setIdx, way)
// and fires the intra-set wear-levelling remap when the set's write
// count reaches a multiple of WearLevelPeriod. Called after all
// replacement-state updates for the access, so the remap operates on
// the post-access recency stack.
func (c *Cache) recordWrite(setIdx, way int) {
	c.wear[setIdx*c.assoc+way]++
	if c.setWrites == nil {
		return
	}
	c.setWrites[setIdx]++
	if c.setWrites[setIdx]%uint64(c.p.WearLevelPeriod) == 0 {
		c.wearLevelSet(setIdx)
	}
}

// wearLevelSet swaps the logical contents of the set's most- and
// least-worn active frames (ties resolve to the lowest way index; a
// fully even set is a no-op). Only active ways participate so the
// valid ⟹ active invariant is preserved in shrunk follower sets.
func (c *Cache) wearLevelSet(setIdx int) {
	n := c.waysFor(setIdx)
	base := setIdx * c.assoc
	maxW, minW := 0, 0
	for w := 1; w < n; w++ {
		wr := c.wear[base+w]
		if wr > c.wear[base+maxW] {
			maxW = w
		}
		if wr < c.wear[base+minW] {
			minW = w
		}
	}
	if maxW == minW {
		return
	}
	c.swapFrames(setIdx, maxW, minW)
	c.wearSwaps++
}

// swapFrames exchanges the logical contents of two frames in a set:
// tags, valid/dirty bits and recency-stack entries move; wear counters
// stay with the physical frames. Bank occupancy, active-line counts
// and all externally visible cache behaviour are unchanged.
func (c *Cache) swapFrames(setIdx, a, b int) {
	base := setIdx * c.assoc
	c.tags[base+a], c.tags[base+b] = c.tags[base+b], c.tags[base+a]
	abit, bbit := uint64(1)<<uint(a), uint64(1)<<uint(b)
	for i := 2 * setIdx; i <= 2*setIdx+1; i++ {
		word := c.vd[i]
		if (word&abit != 0) != (word&bbit != 0) {
			c.vd[i] = word ^ (abit | bbit)
		}
	}
	order := c.order[base : base+c.assoc]
	for i, w := range order {
		switch int(w) {
		case a:
			order[i] = uint8(b)
		case b:
			order[i] = uint8(a)
		}
	}
}

// promote moves the way at stack position pos to MRU.
func promote(order []uint8, pos int) {
	w := order[pos]
	copy(order[1:pos+1], order[:pos])
	order[0] = w
}

// AccessMRU performs the access when it hits the set's MRU way and
// reports whether it did. A hit updates exactly the counters and dirty
// bit AccessInto would (the recency stack is unchanged: the way is
// already MRU). It declines — returning false with no state touched,
// so the caller falls back to AccessInto — on any other outcome, and
// always for leader sets, an attached observer or wear tracking,
// whose bookkeeping only AccessInto does.
func (c *Cache) AccessMRU(addr Addr, write bool) bool {
	if c.observer != nil || c.wear != nil {
		return false
	}
	setIdx := c.SetIndex(addr)
	w := uint(c.order[setIdx*c.assoc])
	if c.vd[2*setIdx]>>w&1 == 0 || c.tags[setIdx*c.assoc+int(w)] != c.tagOf(addr) || c.setLeader[setIdx] {
		return false
	}
	c.total.Hits++
	c.interval.Hits++
	if write {
		c.vd[2*setIdx+1] |= 1 << w
		c.total.WriteHits++
		c.interval.WriteHits++
	}
	return true
}

// Probe reports whether addr is present in an active way, without
// disturbing replacement state or statistics.
func (c *Cache) Probe(addr Addr) bool {
	setIdx := c.SetIndex(addr)
	tag := c.tagOf(addr)
	base := setIdx * c.assoc
	tags := c.tags[base : base+c.assoc]
	for m := c.vd[2*setIdx]; m != 0; m &= m - 1 {
		if tags[bits.TrailingZeros64(m)] == tag {
			return true
		}
	}
	return false
}

// SetActiveWays reconfigures module m to keep n ways powered on.
// Shrinking flushes the disabled ways of every follower set in the
// module: clean lines are dropped and dirty lines counted as
// writebacks. It returns the number of lines invalidated and how many
// of those were dirty (writebacks). Growing simply enables the ways.
// It panics if m or n is out of range, matching the paper's invariant
// that the controller always requests 1 <= n <= A.
func (c *Cache) SetActiveWays(m, n int) (invalidated, writebacks int) {
	if m < 0 || m >= c.p.Modules {
		panic(fmt.Sprintf("cache %s: module %d out of range", c.p.Name, m))
	}
	if n < 1 || n > c.p.Assoc {
		panic(fmt.Sprintf("cache %s: active ways %d out of range [1,%d]", c.p.Name, n, c.p.Assoc))
	}
	old := c.activeWays[m]
	c.activeWays[m] = n
	c.activeLines += (n - old) * c.followersPerMod[m]
	if n >= old {
		return 0, 0
	}
	dropMask := waysMask(old) &^ waysMask(n)
	lo, hi := m*c.setsPerMod, (m+1)*c.setsPerMod
	for setIdx := lo; setIdx < hi; setIdx++ {
		if c.setLeader[setIdx] {
			continue // leader sets never reconfigure (Section 3.2)
		}
		drop := c.vd[2*setIdx] & dropMask
		if drop == 0 {
			continue
		}
		bank := int(c.setBank[setIdx])
		for mb := drop; mb != 0; mb &= mb - 1 {
			w := bits.TrailingZeros64(mb)
			bit := uint64(1) << uint(w)
			if c.vd[2*setIdx+1]&bit != 0 {
				writebacks++
				c.total.Writebacks++
				c.interval.Writebacks++
			}
			c.vd[2*setIdx] &^= bit
			c.vd[2*setIdx+1] &^= bit
			invalidated++
			c.validByBank[bank]--
			if c.observer != nil {
				c.observer.OnInvalidate(setIdx, w)
			}
		}
	}
	return invalidated, writebacks
}

// ActiveWays returns the active-way count of module m.
func (c *Cache) ActiveWays(m int) int { return c.activeWays[m] }

// ActiveFraction returns F_A: the fraction of the cache's lines that
// are powered on, counting leader sets (always fully on) and follower
// sets at their configured width — exactly the accounting the paper
// requires ("F_A for ESTEEM duly takes into account the active area
// due to leader and follower sets").
func (c *Cache) ActiveFraction() float64 {
	return float64(c.activeLines) / float64(c.numSets*c.p.Assoc)
}

// ValidByBank returns the number of valid lines mapped to bank b.
func (c *Cache) ValidByBank(b int) int { return c.validByBank[b] }

// ValidLines returns the total number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, v := range c.validByBank {
		n += v
	}
	return n
}

// TotalLines returns S*A.
func (c *Cache) TotalLines() int { return c.numSets * c.p.Assoc }

// LinesPerBank returns the number of line frames in bank b.
func (c *Cache) LinesPerBank(b int) int {
	// Sets are interleaved across banks low-order; with a power-of-two
	// set count and any bank count, distribute remainders exactly.
	full := c.numSets / c.p.Banks
	if b < c.numSets%c.p.Banks {
		full++
	}
	return full * c.p.Assoc
}

// LineState reports the valid/dirty state of the line at (setIdx, way).
func (c *Cache) LineState(setIdx, way int) (valid, dirty bool) {
	bit := uint64(1) << uint(way)
	return c.vd[2*setIdx]&bit != 0, c.vd[2*setIdx+1]&bit != 0
}

// SetBits returns the raw valid and dirty bitset words of a set (bit
// w = way w). It exposes the SoA representation for verification:
// the -tags verify invariants cross-check popcounts of these words
// against independent recounts.
func (c *Cache) SetBits(setIdx int) (valid, dirty uint64) {
	return c.vd[2*setIdx], c.vd[2*setIdx+1]
}

// WearCounters returns the per-frame write-wear counters, indexed
// set*Assoc+way; nil unless Params.TrackWear. The slice aliases
// internal state; callers must not modify it.
func (c *Cache) WearCounters() []uint64 { return c.wear }

// WearLevelSwaps returns the number of wear-levelling remaps
// performed since construction.
func (c *Cache) WearLevelSwaps() uint64 { return c.wearSwaps }

// HitPositions returns the leader-set hit histogram for module m at
// the current interval: element i counts hits at LRU position i since
// the last ResetInterval. The returned slice aliases internal state;
// callers must not modify it and must copy if retaining across
// ResetInterval.
func (c *Cache) HitPositions(m int) []uint64 { return c.hitPos[m] }

// TotalCounters returns statistics since construction.
func (c *Cache) TotalCounters() Counters { return c.total }

// IntervalCounters returns statistics since the last ResetInterval.
func (c *Cache) IntervalCounters() Counters { return c.interval }

// ResetInterval clears the interval counters and leader histograms.
// The ESTEEM controller calls it after consuming an interval's
// profiling data.
func (c *Cache) ResetInterval() {
	c.interval = Counters{}
	for i := range c.hitBacking {
		c.hitBacking[i] = 0
	}
}

// InvalidateAll drops every line (counting dirty writebacks), e.g. for
// tests and for policies that eagerly invalidate.
func (c *Cache) InvalidateAll() (writebacks int) {
	for setIdx := 0; setIdx < c.numSets; setIdx++ {
		valid := c.vd[2*setIdx]
		if valid == 0 {
			continue
		}
		bank := int(c.setBank[setIdx])
		for mb := valid; mb != 0; mb &= mb - 1 {
			w := bits.TrailingZeros64(mb)
			bit := uint64(1) << uint(w)
			if c.vd[2*setIdx+1]&bit != 0 {
				writebacks++
				c.total.Writebacks++
				c.interval.Writebacks++
			}
			c.vd[2*setIdx] &^= bit
			c.vd[2*setIdx+1] &^= bit
			c.validByBank[bank]--
			if c.observer != nil {
				c.observer.OnInvalidate(setIdx, w)
			}
		}
	}
	return writebacks
}

// InvalidateLine invalidates (set, way) if valid, returning whether it
// was dirty. Used by eager-invalidation refresh policies (Refrint
// RPD).
func (c *Cache) InvalidateLine(setIdx, way int) (wasValid, wasDirty bool) {
	bit := uint64(1) << uint(way)
	if c.vd[2*setIdx]&bit == 0 {
		return false, false
	}
	wasDirty = c.vd[2*setIdx+1]&bit != 0
	if wasDirty {
		c.total.Writebacks++
		c.interval.Writebacks++
	}
	c.vd[2*setIdx] &^= bit
	c.vd[2*setIdx+1] &^= bit
	c.validByBank[c.setBank[setIdx]]--
	if c.observer != nil {
		c.observer.OnInvalidate(setIdx, way)
	}
	return true, wasDirty
}
