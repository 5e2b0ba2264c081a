package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
	"repro/internal/xrand"
)

// small returns a tiny cache convenient for direct inspection:
// 4 sets, 4 ways, 64B lines, 1 module, no leader sets.
func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Params{
		Name: "t", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64,
		Modules: 1, Banks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addrFor builds an address that maps to the given set with the given
// tag for a cache with 64B lines and the given set count.
func addrFor(set, tag, numSets int) Addr {
	return Addr(uint64(tag)*uint64(numSets)*64 + uint64(set)*64)
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{Name: "zero"},
		{Name: "indiv", SizeBytes: 1000, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1},
		{Name: "nonpow2sets", SizeBytes: 3 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1},
		{Name: "nonpow2line", SizeBytes: 4 * 4 * 48, Assoc: 4, LineBytes: 48, Modules: 1, Banks: 1},
		{Name: "mods", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 3, Banks: 1},
		{Name: "zeromod", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 0, Banks: 1},
		{Name: "zerobank", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 0},
		{Name: "negsamp", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1, SamplingRatio: -1},
		{Name: "hugeassoc", SizeBytes: 128 * 128 * 64, Assoc: 128, LineBytes: 64, Modules: 1, Banks: 1},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("Params %q: expected error", p.Name)
		}
	}
	good := Params{Name: "ok", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Modules: 8, Banks: 4, SamplingRatio: 64}
	c, err := New(good)
	if err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	if c.NumSets() != 4096 {
		t.Errorf("4MB/64B/16way should have 4096 sets, got %d", c.NumSets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	a := addrFor(1, 7, 4)
	r := c.Access(a, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	if r.Set != 1 {
		t.Fatalf("set = %d, want 1", r.Set)
	}
	r = c.Access(a, false)
	if !r.Hit || r.LRUPos != 0 {
		t.Fatalf("second access: hit=%v pos=%d, want hit at MRU", r.Hit, r.LRUPos)
	}
}

func TestLRUPositions(t *testing.T) {
	c := small(t)
	// Fill set 0 with tags 0..3; after the fills, tag 3 is MRU and
	// tag 0 is LRU.
	for tag := 0; tag < 4; tag++ {
		c.Access(addrFor(0, tag+1, 4), false)
	}
	// Accessing tag 1 (filled first) must hit at LRU position 3.
	r := c.Access(addrFor(0, 1, 4), false)
	if !r.Hit || r.LRUPos != 3 {
		t.Fatalf("hit=%v pos=%d, want hit at pos 3", r.Hit, r.LRUPos)
	}
	// Now tag 1 is MRU; re-access hits at position 0.
	r = c.Access(addrFor(0, 1, 4), false)
	if !r.Hit || r.LRUPos != 0 {
		t.Fatalf("hit=%v pos=%d, want hit at MRU", r.Hit, r.LRUPos)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t)
	for tag := 1; tag <= 4; tag++ {
		c.Access(addrFor(0, tag, 4), false)
	}
	// 5th distinct tag evicts the LRU line (tag 1).
	c.Access(addrFor(0, 5, 4), false)
	if c.Probe(addrFor(0, 1, 4)) {
		t.Fatal("LRU line not evicted")
	}
	for tag := 2; tag <= 5; tag++ {
		if !c.Probe(addrFor(0, tag, 4)) {
			t.Fatalf("tag %d missing after eviction of LRU", tag)
		}
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := small(t)
	c.Access(addrFor(0, 1, 4), true) // dirty
	for tag := 2; tag <= 5; tag++ {
		c.Access(addrFor(0, tag, 4), false)
	}
	// tag 1 was dirty LRU and must have been written back.
	if got := c.TotalCounters().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small(t)
	for tag := 1; tag <= 5; tag++ {
		c.Access(addrFor(0, tag, 4), false)
	}
	if got := c.TotalCounters().Writebacks; got != 0 {
		t.Fatalf("writebacks = %d, want 0", got)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := small(t)
	c.Access(addrFor(0, 1, 4), false) // clean fill
	r := c.Access(addrFor(0, 1, 4), true)
	if !r.Hit {
		t.Fatal("write should hit")
	}
	for tag := 2; tag <= 5; tag++ {
		c.Access(addrFor(0, tag, 4), false)
	}
	if got := c.TotalCounters().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1 (write hit dirtied the line)", got)
	}
}

func TestCounters(t *testing.T) {
	c := small(t)
	c.Access(addrFor(0, 1, 4), false)
	c.Access(addrFor(0, 1, 4), false)
	c.Access(addrFor(0, 2, 4), false)
	tc := c.TotalCounters()
	if tc.Hits != 1 || tc.Misses != 2 || tc.Fills != 2 {
		t.Fatalf("counters = %+v", tc)
	}
	if tc.Accesses() != 3 {
		t.Fatalf("accesses = %d", tc.Accesses())
	}
	c.ResetInterval()
	if ic := c.IntervalCounters(); ic != (Counters{}) {
		t.Fatalf("interval counters not reset: %+v", ic)
	}
	if tc := c.TotalCounters(); tc.Accesses() != 3 {
		t.Fatal("total counters must survive ResetInterval")
	}
}

func TestShrinkFlushesAndWaysDisabled(t *testing.T) {
	// 8 sets, 4 ways, 2 modules (sets 0-3 and 4-7), no leaders.
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 2, Banks: 1})
	// Fill set 0 fully; dirty the line in way 3.
	for tag := 1; tag <= 4; tag++ {
		c.Access(addrFor(0, tag, 8), tag == 4)
	}
	inv, wb := c.SetActiveWays(0, 2)
	if inv != 2 {
		t.Fatalf("invalidated = %d, want 2", inv)
	}
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1 (the dirty line in way 3)", wb)
	}
	if c.ActiveWays(0) != 2 || c.ActiveWays(1) != 4 {
		t.Fatalf("active ways = %d,%d", c.ActiveWays(0), c.ActiveWays(1))
	}
	// Lines in disabled ways (2,3) must be gone; ways 0,1 retained.
	if !c.Probe(addrFor(0, 1, 8)) || !c.Probe(addrFor(0, 2, 8)) {
		t.Fatal("lines in surviving ways were lost")
	}
	if c.Probe(addrFor(0, 3, 8)) || c.Probe(addrFor(0, 4, 8)) {
		t.Fatal("lines in disabled ways still visible")
	}
	// Module 1 sets untouched.
	c.Access(addrFor(4, 9, 8), false)
	if !c.Probe(addrFor(4, 9, 8)) {
		t.Fatal("other module affected by reconfiguration")
	}
}

func TestShrunkSetUsesOnlyActiveWays(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1})
	c.SetActiveWays(0, 2)
	// With 2 active ways, three distinct tags must cause an eviction.
	c.Access(addrFor(0, 1, 4), false)
	c.Access(addrFor(0, 2, 4), false)
	c.Access(addrFor(0, 3, 4), false)
	if c.Probe(addrFor(0, 1, 4)) {
		t.Fatal("tag 1 should have been evicted in 2-way mode")
	}
	if c.ValidLines() != 2 {
		t.Fatalf("valid lines = %d, want 2", c.ValidLines())
	}
}

func TestGrowReenablesWays(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1})
	c.SetActiveWays(0, 2)
	c.Access(addrFor(0, 1, 4), false)
	c.Access(addrFor(0, 2, 4), false)
	inv, wb := c.SetActiveWays(0, 4)
	if inv != 0 || wb != 0 {
		t.Fatalf("grow flushed lines: inv=%d wb=%d", inv, wb)
	}
	c.Access(addrFor(0, 3, 4), false)
	c.Access(addrFor(0, 4, 4), false)
	// All four must now coexist.
	for tag := 1; tag <= 4; tag++ {
		if !c.Probe(addrFor(0, tag, 4)) {
			t.Fatalf("tag %d missing after grow", tag)
		}
	}
}

func TestLeaderSetsExemptFromReconfig(t *testing.T) {
	// 8 sets, sampling ratio 4: sets 0 and 4 are leaders.
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1, SamplingRatio: 4})
	if !c.IsLeader(0) || !c.IsLeader(4) || c.IsLeader(1) {
		t.Fatal("leader set identification wrong")
	}
	if c.NumLeaderSets() != 2 {
		t.Fatalf("NumLeaderSets = %d, want 2", c.NumLeaderSets())
	}
	for tag := 1; tag <= 4; tag++ {
		c.Access(addrFor(0, tag, 8), false) // leader set
		c.Access(addrFor(1, tag, 8), false) // follower set
	}
	c.SetActiveWays(0, 2)
	// Leader set keeps all lines; follower flushed down to 2.
	for tag := 1; tag <= 4; tag++ {
		if !c.Probe(addrFor(0, tag, 8)) {
			t.Fatalf("leader set lost tag %d on reconfig", tag)
		}
	}
	if c.Probe(addrFor(1, 3, 8)) || c.Probe(addrFor(1, 4, 8)) {
		t.Fatal("follower set kept lines in disabled ways")
	}
}

func TestHitPositionHistogramLeaderOnly(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 2, Banks: 1, SamplingRatio: 4})
	// Leader set 0 (module 0): fill two tags, hit the older one →
	// LRU position 1.
	c.Access(addrFor(0, 1, 8), false)
	c.Access(addrFor(0, 2, 8), false)
	c.Access(addrFor(0, 1, 8), false)
	// Follower set 1: a hit that must NOT be recorded.
	c.Access(addrFor(1, 1, 8), false)
	c.Access(addrFor(1, 1, 8), false)
	h0 := c.HitPositions(0)
	if h0[1] != 1 {
		t.Fatalf("hitPos[0] = %v, want one hit at position 1", h0)
	}
	var total uint64
	for _, v := range h0 {
		total += v
	}
	if total != 1 {
		t.Fatalf("leader histogram counted follower hits: %v", h0)
	}
	// Module 1 histogram untouched.
	for _, v := range c.HitPositions(1) {
		if v != 0 {
			t.Fatalf("module 1 histogram dirty: %v", c.HitPositions(1))
		}
	}
}

func TestActiveFraction(t *testing.T) {
	// 8 sets, 4 ways, 2 modules, no leaders.
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 2, Banks: 1})
	if got := c.ActiveFraction(); got != 1 {
		t.Fatalf("initial active fraction = %v", got)
	}
	c.SetActiveWays(0, 2)
	// Module 0 at 2/4, module 1 at 4/4 → 0.75 overall.
	if got := c.ActiveFraction(); got != 0.75 {
		t.Fatalf("active fraction = %v, want 0.75", got)
	}
}

func TestActiveFractionCountsLeaders(t *testing.T) {
	// 8 sets, sampling 4 → leaders {0,4}, one per module of 4 sets.
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 2, Banks: 1, SamplingRatio: 4})
	c.SetActiveWays(0, 2)
	c.SetActiveWays(1, 2)
	// Each module: 1 leader set fully on (4 ways) + 3 followers at 2.
	// Active lines = 2*(4 + 3*2) = 20 of 32 → 0.625.
	if got := c.ActiveFraction(); got != 0.625 {
		t.Fatalf("active fraction = %v, want 0.625", got)
	}
}

func TestValidByBank(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 4})
	// Sets 0..7 map to banks 0..3,0..3.
	c.Access(addrFor(0, 1, 8), false) // bank 0
	c.Access(addrFor(1, 1, 8), false) // bank 1
	c.Access(addrFor(5, 1, 8), false) // bank 1
	if c.ValidByBank(0) != 1 || c.ValidByBank(1) != 2 || c.ValidByBank(2) != 0 {
		t.Fatalf("valid by bank = %d,%d,%d", c.ValidByBank(0), c.ValidByBank(1), c.ValidByBank(2))
	}
	if c.ValidLines() != 3 {
		t.Fatalf("valid lines = %d", c.ValidLines())
	}
}

func TestLinesPerBank(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 4})
	total := 0
	for b := 0; b < 4; b++ {
		total += c.LinesPerBank(b)
	}
	if total != c.TotalLines() {
		t.Fatalf("bank line counts sum to %d, want %d", total, c.TotalLines())
	}
}

func TestInvalidateAll(t *testing.T) {
	c := small(t)
	c.Access(addrFor(0, 1, 4), true)
	c.Access(addrFor(1, 2, 4), false)
	wb := c.InvalidateAll()
	if wb != 1 {
		t.Fatalf("InvalidateAll writebacks = %d, want 1", wb)
	}
	if c.ValidLines() != 0 {
		t.Fatalf("valid lines = %d after InvalidateAll", c.ValidLines())
	}
	if c.Probe(addrFor(0, 1, 4)) {
		t.Fatal("line survived InvalidateAll")
	}
}

func TestInvalidateLine(t *testing.T) {
	c := small(t)
	r := c.Access(addrFor(2, 3, 4), true)
	wasValid, wasDirty := c.InvalidateLine(r.Set, r.Way)
	if !wasValid || !wasDirty {
		t.Fatalf("InvalidateLine = %v,%v, want valid dirty", wasValid, wasDirty)
	}
	wasValid, _ = c.InvalidateLine(r.Set, r.Way)
	if wasValid {
		t.Fatal("double invalidate reported valid")
	}
}

type recordingObserver struct {
	touches, invalidates int
}

func (o *recordingObserver) OnTouch(set, way int)      { o.touches++ }
func (o *recordingObserver) OnInvalidate(set, way int) { o.invalidates++ }

func TestObserverEvents(t *testing.T) {
	c := small(t)
	var o recordingObserver
	c.SetObserver(&o)
	c.Access(addrFor(0, 1, 4), false) // fill: touch
	c.Access(addrFor(0, 1, 4), false) // hit: touch
	for tag := 2; tag <= 5; tag++ {   // 4 fills, 1 eviction
		c.Access(addrFor(0, tag, 4), false)
	}
	if o.touches != 6 {
		t.Fatalf("touches = %d, want 6", o.touches)
	}
	if o.invalidates != 1 {
		t.Fatalf("invalidates = %d, want 1", o.invalidates)
	}
}

func TestSetActiveWaysPanics(t *testing.T) {
	c := small(t)
	for _, f := range []func(){
		func() { c.SetActiveWays(-1, 2) },
		func() { c.SetActiveWays(1, 2) },
		func() { c.SetActiveWays(0, 0) },
		func() { c.SetActiveWays(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad SetActiveWays did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: the valid-line count tracked per bank always equals a
// direct scan of line state, across random access/reconfig sequences.
func TestValidCountConsistencyProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		c := MustNew(Params{Name: "p", SizeBytes: 16 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 4, Banks: 4, SamplingRatio: 8})
		for i := 0; i < 500; i++ {
			switch rng.Intn(10) {
			case 0:
				c.SetActiveWays(rng.Intn(4), 1+rng.Intn(4))
			default:
				c.Access(Addr(rng.Uint64n(16*64*32)), rng.Bool(0.3))
			}
		}
		// Direct scan.
		scan := make([]int, 4)
		for s := 0; s < c.NumSets(); s++ {
			for w := 0; w < 4; w++ {
				if v, _ := c.LineState(s, w); v {
					scan[c.BankOf(s)]++
				}
			}
		}
		for b := 0; b < 4; b++ {
			if scan[b] != c.ValidByBank(b) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: no valid line ever resides in a disabled way of a
// follower set.
func TestNoValidLinesInDisabledWaysProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		c := MustNew(Params{Name: "p", SizeBytes: 16 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 2, Banks: 2, SamplingRatio: 8})
		for i := 0; i < 400; i++ {
			if rng.Bool(0.1) {
				c.SetActiveWays(rng.Intn(2), 1+rng.Intn(4))
			} else {
				c.Access(Addr(rng.Uint64n(16*64*16)), rng.Bool(0.5))
			}
		}
		for s := 0; s < c.NumSets(); s++ {
			if c.IsLeader(s) {
				continue
			}
			n := c.ActiveWays(c.ModuleOf(s))
			for w := n; w < 4; w++ {
				if v, _ := c.LineState(s, w); v {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses == accesses issued, and every probe after an
// access to the same address hits (inclusion of most-recent line).
func TestRecentLineAlwaysPresentProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		c := MustNew(Params{Name: "p", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1})
		n := 300
		for i := 0; i < n; i++ {
			a := Addr(rng.Uint64n(8 * 64 * 8))
			c.Access(a, rng.Bool(0.3))
			if !c.Probe(a) {
				return false
			}
		}
		tc := c.TotalCounters()
		return tc.Accesses() == uint64(n)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetIndexAndTagRoundTrip(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Modules: 8, Banks: 4})
	// Two addresses differing only above the set bits must map to the
	// same set with different tags and not alias.
	a1 := Addr(0x12340)
	a2 := a1 + Addr(c.NumSets()*64)
	if c.SetIndex(a1) != c.SetIndex(a2) {
		t.Fatal("addresses should map to same set")
	}
	c.Access(a1, false)
	if c.Probe(a2) {
		t.Fatal("distinct tags aliased")
	}
}

func TestModuleOf(t *testing.T) {
	c := MustNew(Params{Name: "t", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Modules: 16, Banks: 4})
	// 4096 sets, 16 modules → 256 sets per module, contiguous, as the
	// paper's example states.
	if c.SetsPerModule() != 256 {
		t.Fatalf("sets per module = %d, want 256", c.SetsPerModule())
	}
	if c.ModuleOf(0) != 0 || c.ModuleOf(255) != 0 || c.ModuleOf(256) != 1 || c.ModuleOf(4095) != 15 {
		t.Fatal("module mapping wrong")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := MustNew(Params{Name: "b", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Modules: 8, Banks: 4, SamplingRatio: 64})
	a := Addr(0x1000)
	c.Access(a, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(a, false)
	}
}

func BenchmarkAccessMissStream(b *testing.B) {
	c := MustNew(Params{Name: "b", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Modules: 8, Banks: 4, SamplingRatio: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Addr(uint64(i)*64), false)
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	c := small(t)
	dirty := addrFor(2, 1, 4)
	c.Access(dirty, true)
	for tag := 2; tag <= 4; tag++ {
		c.Access(addrFor(2, tag, 4), false)
	}
	r := c.Access(addrFor(2, 5, 4), false)
	if !r.WritebackVictim {
		t.Fatal("dirty LRU line not written back")
	}
	if r.VictimAddr != dirty {
		t.Fatalf("victim addr = %#x, want %#x", r.VictimAddr, dirty)
	}
}

// Property: each set's LRU order array remains a permutation of the
// way indices under arbitrary access/reconfiguration sequences.
func TestLRUOrderIsPermutationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		c := MustNew(Params{Name: "p", SizeBytes: 8 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 2, Banks: 2, SamplingRatio: 4})
		for i := 0; i < 300; i++ {
			if rng.Bool(0.1) {
				c.SetActiveWays(rng.Intn(2), 1+rng.Intn(4))
			} else {
				c.Access(Addr(rng.Uint64n(8*64*16)), rng.Bool(0.5))
			}
		}
		for s := 0; s < c.NumSets(); s++ {
			seen := [4]bool{}
			for _, w := range c.SnapshotSet(s).Order {
				if w >= 4 || seen[w] {
					return false
				}
				seen[w] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: interval counters never exceed totals, and both agree on
// hit/miss conservation with issued accesses.
func TestCounterConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		c := MustNew(Params{Name: "p", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1})
		n := int(nRaw)
		resets := 0
		for i := 0; i < n; i++ {
			if rng.Bool(0.05) {
				c.ResetInterval()
				resets++
				continue
			}
			c.Access(Addr(rng.Uint64n(4*64*8)), rng.Bool(0.3))
		}
		tc, ic := c.TotalCounters(), c.IntervalCounters()
		if ic.Hits > tc.Hits || ic.Misses > tc.Misses || ic.Writebacks > tc.Writebacks {
			return false
		}
		return tc.Accesses() == uint64(n-resets)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccessMRUMatchesAccess runs one stream through a cache that
// tries AccessMRU first and one that always uses Access: the fast
// path must fire exactly on non-leader MRU hits and leave the two
// caches' serialised state identical.
func TestAccessMRUMatchesAccess(t *testing.T) {
	p := Params{Name: "t", SizeBytes: 64 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 4, SamplingRatio: 8, Banks: 2}
	fast, ref := MustNew(p), MustNew(p)
	rng := xrand.New(17)
	fired := 0
	for i := 0; i < 50_000; i++ {
		if i%997 == 0 {
			m, n := rng.Intn(4), 1+rng.Intn(4)
			fast.SetActiveWays(m, n)
			ref.SetActiveWays(m, n)
		}
		// A small footprint with repeats, so MRU hits are common.
		a := Addr(rng.Uint64n(512) * 16)
		write := rng.Intn(4) == 0
		hit := fast.AccessMRU(a, write)
		want := ref.Access(a, write)
		if hit != (want.Hit && want.LRUPos == 0 && !want.Leader) {
			t.Fatalf("access %d: AccessMRU=%v for %+v", i, hit, want)
		}
		if hit {
			fired++
		} else {
			fast.Access(a, write)
		}
	}
	if fired == 0 {
		t.Fatal("fast path never fired")
	}
	wf, wr := ckpt.NewWriter(), ckpt.NewWriter()
	fast.AppendState(wf)
	ref.AppendState(wr)
	if !bytes.Equal(wf.Bytes(), wr.Bytes()) {
		t.Fatal("state diverged between the fast-path and reference caches")
	}
}

// TestAccessMRUDeclines checks the fast path stays out of the way of
// bookkeeping only AccessInto does: observers and wear tracking.
func TestAccessMRUDeclines(t *testing.T) {
	c := small(t)
	c.SetObserver(&recordingObserver{})
	c.Access(addrFor(0, 1, 4), false)
	if c.AccessMRU(addrFor(0, 1, 4), false) {
		t.Fatal("AccessMRU ran with an observer attached")
	}
	w := MustNew(Params{Name: "w", SizeBytes: 4 * 4 * 64, Assoc: 4, LineBytes: 64, Modules: 1, Banks: 1, TrackWear: true})
	w.Access(addrFor(0, 1, 4), true)
	if w.AccessMRU(addrFor(0, 1, 4), true) {
		t.Fatal("AccessMRU ran with wear tracking")
	}
	if got := w.TotalCounters(); got.Hits != 0 {
		t.Fatalf("declined access changed counters: %+v", got)
	}
}
