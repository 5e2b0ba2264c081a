// Package verify is the differential verification harness: it replays
// identical randomized operation schedules through the optimised
// production implementations (internal/cache, internal/edram,
// internal/refrint, internal/smartref) and the naive reference models
// in internal/oracle, asserting full state equivalence — tag arrays,
// LRU order, valid/dirty bits, histograms, counters, refresh totals —
// after every operation.
//
// The harness reports divergences as errors rather than test failures
// so the same machinery backs the deterministic differential suite,
// the property tests and the native fuzz targets in this package.
package verify

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/edram"
	"repro/internal/oracle"
	"repro/internal/refrint"
	"repro/internal/smartref"
	"repro/internal/xrand"
)

// OpKind enumerates the operations a schedule may contain.
type OpKind uint8

const (
	// OpRead / OpWrite access an address through both caches.
	OpRead OpKind = iota
	OpWrite
	// OpProbe checks presence without disturbing state.
	OpProbe
	// OpReconfigure sets a module's active-way count.
	OpReconfigure
	// OpInvalidateLine drops one frame.
	OpInvalidateLine
	// OpInvalidateAll drops every frame.
	OpInvalidateAll
	// OpResetInterval clears interval counters and histograms.
	OpResetInterval
	// OpAdvance moves simulated time forward and fires any refresh
	// events that became due (refresh harness only; the cache-only
	// harness treats it as a no-op).
	OpAdvance
	// OpReadMRU / OpWriteMRU access an address the way the simulator
	// does an L1 reference: the production cache tries its MRU-hit
	// fast path (AccessMRU) and falls back to a full access when it
	// declines; the oracle performs a plain access.
	OpReadMRU
	OpWriteMRU

	numOpKinds
)

// String names the op kind for divergence reports.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpProbe:
		return "probe"
	case OpReconfigure:
		return "reconfigure"
	case OpInvalidateLine:
		return "invalidate-line"
	case OpInvalidateAll:
		return "invalidate-all"
	case OpResetInterval:
		return "reset-interval"
	case OpAdvance:
		return "advance"
	case OpReadMRU:
		return "read-mru"
	case OpWriteMRU:
		return "write-mru"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one schedule entry. Operand fields are interpreted per kind.
type Op struct {
	Kind   OpKind
	Addr   cache.Addr // OpRead, OpWrite, OpProbe, OpReadMRU, OpWriteMRU
	Module int        // OpReconfigure
	Ways   int        // OpReconfigure
	Set    int        // OpInvalidateLine
	Way    int        // OpInvalidateLine
	Delta  uint64     // OpAdvance (cycles)
}

// RandomOps generates a schedule of n operations over a cache with
// parameters p. The address stream covers twice the cache's capacity
// (so both hits and misses occur), about a third of accesses are
// writes, and reconfigurations, invalidations, interval resets and
// time advances are sprinkled in. retention sizes OpAdvance deltas;
// pass 0 for cache-only schedules.
func RandomOps(rng *xrand.RNG, p cache.Params, n int, retention uint64) []Op {
	numSets := p.SizeBytes / (p.LineBytes * p.Assoc)
	lineSpan := uint64(2 * numSets * p.Assoc) // lines in the address pool
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		var op Op
		switch {
		case r < 70: // access
			op.Kind = OpRead
			if rng.Intn(3) == 0 {
				op.Kind = OpWrite
			}
			op.Addr = cache.Addr(rng.Uint64n(lineSpan) * uint64(p.LineBytes))
		case r < 76: // simulator-style access, often repeating the last line
			op.Kind = OpReadMRU
			if rng.Intn(3) == 0 {
				op.Kind = OpWriteMRU
			}
			op.Addr = cache.Addr(rng.Uint64n(lineSpan) * uint64(p.LineBytes))
			if len(ops) > 0 && rng.Intn(2) == 0 {
				op.Addr = ops[len(ops)-1].Addr
			}
		case r < 82:
			op.Kind = OpProbe
			op.Addr = cache.Addr(rng.Uint64n(lineSpan) * uint64(p.LineBytes))
		case r < 87:
			op.Kind = OpReconfigure
			op.Module = rng.Intn(p.Modules)
			op.Ways = 1 + rng.Intn(p.Assoc)
		case r < 92:
			op.Kind = OpInvalidateLine
			op.Set = rng.Intn(numSets)
			op.Way = rng.Intn(p.Assoc)
		case r < 93:
			op.Kind = OpInvalidateAll
		case r < 96:
			op.Kind = OpResetInterval
		default:
			op.Kind = OpAdvance
			if retention > 0 {
				op.Delta = 1 + rng.Uint64n(retention/2+1)
			} else {
				op.Delta = 1 + rng.Uint64n(1000)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// DecodeOps interprets fuzzer-provided bytes as an operation schedule
// over a cache with parameters p: each op consumes one selector byte
// plus four operand bytes, every byte sequence decodes to a valid
// schedule, and every reachable schedule is encodable. retention sizes
// OpAdvance deltas as in RandomOps.
func DecodeOps(data []byte, p cache.Params, retention uint64) []Op {
	numSets := p.SizeBytes / (p.LineBytes * p.Assoc)
	lineSpan := uint64(2 * numSets * p.Assoc)
	var ops []Op
	for len(data) >= 5 {
		sel, a, b := data[0], data[1], data[2]
		c, d := data[3], data[4]
		data = data[5:]
		operand := uint64(a) | uint64(b)<<8 | uint64(c)<<16 | uint64(d)<<24
		var op Op
		switch OpKind(sel % uint8(numOpKinds)) {
		case OpRead:
			op = Op{Kind: OpRead, Addr: cache.Addr(operand % lineSpan * uint64(p.LineBytes))}
		case OpWrite:
			op = Op{Kind: OpWrite, Addr: cache.Addr(operand % lineSpan * uint64(p.LineBytes))}
		case OpProbe:
			op = Op{Kind: OpProbe, Addr: cache.Addr(operand % lineSpan * uint64(p.LineBytes))}
		case OpReadMRU:
			op = Op{Kind: OpReadMRU, Addr: cache.Addr(operand % lineSpan * uint64(p.LineBytes))}
		case OpWriteMRU:
			op = Op{Kind: OpWriteMRU, Addr: cache.Addr(operand % lineSpan * uint64(p.LineBytes))}
		case OpReconfigure:
			op = Op{
				Kind:   OpReconfigure,
				Module: int(operand) % p.Modules,
				Ways:   1 + int(operand>>8)%p.Assoc,
			}
		case OpInvalidateLine:
			op = Op{
				Kind: OpInvalidateLine,
				Set:  int(operand) % numSets,
				Way:  int(operand>>16) % p.Assoc,
			}
		case OpInvalidateAll:
			op = Op{Kind: OpInvalidateAll}
		case OpResetInterval:
			op = Op{Kind: OpResetInterval}
		case OpAdvance:
			span := uint64(1000)
			if retention > 0 {
				span = retention/2 + 1
			}
			op = Op{Kind: OpAdvance, Delta: 1 + operand%span}
		}
		ops = append(ops, op)
	}
	return ops
}

// CacheDiff replays operations through the production cache and the
// oracle cache in lockstep.
type CacheDiff struct {
	Impl *cache.Cache
	Orc  *oracle.Cache
	p    cache.Params
	// observed is set when a refresh policy watches the caches; the
	// MRU fast path must then always decline.
	observed bool
}

// NewCacheDiff builds both models from the same parameters.
func NewCacheDiff(p cache.Params) (*CacheDiff, error) {
	impl, err := cache.New(p)
	if err != nil {
		return nil, err
	}
	orc, err := oracle.NewCache(p)
	if err != nil {
		return nil, fmt.Errorf("oracle rejected params the implementation accepted: %w", err)
	}
	return &CacheDiff{Impl: impl, Orc: orc, p: p}, nil
}

// Apply executes one operation on both models and compares the
// immediate results. OpAdvance is a no-op here (see RefreshDiff).
func (d *CacheDiff) Apply(op Op) error {
	switch op.Kind {
	case OpRead, OpWrite:
		ri := d.Impl.Access(op.Addr, op.Kind == OpWrite)
		ro := d.Orc.Access(op.Addr, op.Kind == OpWrite)
		if ri != ro {
			return fmt.Errorf("%v %#x: impl %+v, oracle %+v", op.Kind, uint64(op.Addr), ri, ro)
		}
	case OpReadMRU, OpWriteMRU:
		write := op.Kind == OpWriteMRU
		ro := d.Orc.Access(op.Addr, write)
		// The fast path must take exactly the MRU hits it is allowed
		// to; CheckState then proves it left the same state behind.
		eligible := !d.observed && !d.p.TrackWear && !ro.Leader
		fast := d.Impl.AccessMRU(op.Addr, write)
		if want := eligible && ro.Hit && ro.LRUPos == 0; fast != want {
			return fmt.Errorf("%v %#x: AccessMRU %v, oracle %+v", op.Kind, uint64(op.Addr), fast, ro)
		}
		if !fast {
			if ri := d.Impl.Access(op.Addr, write); ri != ro {
				return fmt.Errorf("%v %#x: impl %+v, oracle %+v", op.Kind, uint64(op.Addr), ri, ro)
			}
		}
	case OpProbe:
		if pi, po := d.Impl.Probe(op.Addr), d.Orc.Probe(op.Addr); pi != po {
			return fmt.Errorf("probe %#x: impl %v, oracle %v", uint64(op.Addr), pi, po)
		}
	case OpReconfigure:
		ii, wi := d.Impl.SetActiveWays(op.Module, op.Ways)
		io, wo := d.Orc.SetActiveWays(op.Module, op.Ways)
		if ii != io || wi != wo {
			return fmt.Errorf("reconfigure m=%d n=%d: impl (%d,%d), oracle (%d,%d)",
				op.Module, op.Ways, ii, wi, io, wo)
		}
	case OpInvalidateLine:
		vi, di := d.Impl.InvalidateLine(op.Set, op.Way)
		vo, do := d.Orc.InvalidateLine(op.Set, op.Way)
		if vi != vo || di != do {
			return fmt.Errorf("invalidate-line (%d,%d): impl (%v,%v), oracle (%v,%v)",
				op.Set, op.Way, vi, di, vo, do)
		}
	case OpInvalidateAll:
		if wi, wo := d.Impl.InvalidateAll(), d.Orc.InvalidateAll(); wi != wo {
			return fmt.Errorf("invalidate-all: impl %d writebacks, oracle %d", wi, wo)
		}
	case OpResetInterval:
		d.Impl.ResetInterval()
		d.Orc.ResetInterval()
	case OpAdvance:
		// Time is meaningless without a refresh engine.
	}
	return nil
}

// CheckState compares the complete externally visible state of the two
// models: every set's LRU order and frames, all counters, histograms,
// per-module configurations and derived occupancy metrics.
func (d *CacheDiff) CheckState() error {
	for set := 0; set < d.Impl.NumSets(); set++ {
		snap := d.Impl.SnapshotSet(set)
		oord := d.Orc.Order(set)
		olines := d.Orc.Lines(set)
		for pos := range snap.Order {
			if snap.Order[pos] != oord[pos] {
				return fmt.Errorf("set %d: LRU order impl %v, oracle %v", set, snap.Order, oord)
			}
		}
		for w := range snap.Lines {
			il, ol := snap.Lines[w], olines[w]
			if il.Valid != ol.Valid || il.Dirty != ol.Dirty {
				return fmt.Errorf("set %d way %d: impl valid=%v dirty=%v, oracle valid=%v dirty=%v",
					set, w, il.Valid, il.Dirty, ol.Valid, ol.Dirty)
			}
			if il.Valid && il.Tag != ol.Tag {
				return fmt.Errorf("set %d way %d: impl tag %#x, oracle tag %#x", set, w, il.Tag, ol.Tag)
			}
		}
	}
	if ti, to := d.Impl.TotalCounters(), d.Orc.TotalCounters(); ti != to {
		return fmt.Errorf("total counters: impl %+v, oracle %+v", ti, to)
	}
	if ii, io := d.Impl.IntervalCounters(), d.Orc.IntervalCounters(); ii != io {
		return fmt.Errorf("interval counters: impl %+v, oracle %+v", ii, io)
	}
	for m := 0; m < d.p.Modules; m++ {
		if ai, ao := d.Impl.ActiveWays(m), d.Orc.ActiveWays(m); ai != ao {
			return fmt.Errorf("module %d: impl %d active ways, oracle %d", m, ai, ao)
		}
		hi, ho := d.Impl.HitPositions(m), d.Orc.HitPositions(m)
		for pos := range hi {
			if hi[pos] != ho[pos] {
				return fmt.Errorf("module %d histogram: impl %v, oracle %v", m, hi, ho)
			}
		}
	}
	if fi, fo := d.Impl.ActiveFraction(), d.Orc.ActiveFraction(); fi != fo {
		return fmt.Errorf("active fraction: impl %v, oracle %v", fi, fo)
	}
	for b := 0; b < d.p.Banks; b++ {
		if vi, vo := d.Impl.ValidByBank(b), d.Orc.ValidByBank(b); vi != vo {
			return fmt.Errorf("bank %d: impl %d valid lines, oracle %d", b, vi, vo)
		}
	}
	if vi, vo := d.Impl.ValidLines(), d.Orc.ValidLines(); vi != vo {
		return fmt.Errorf("valid lines: impl %d, oracle %d", vi, vo)
	}
	if d.p.TrackWear {
		wi := d.Impl.WearCounters()
		wo := d.Orc.WearCounters()
		if len(wi) != len(wo) {
			return fmt.Errorf("wear counters: impl %d frames, oracle %d", len(wi), len(wo))
		}
		for i := range wi {
			if wi[i] != wo[i] {
				return fmt.Errorf("wear of set %d way %d: impl %d, oracle %d",
					i/d.p.Assoc, i%d.p.Assoc, wi[i], wo[i])
			}
		}
		if si, so := d.Impl.WearLevelSwaps(), d.Orc.WearLevelSwaps(); si != so {
			return fmt.Errorf("wear-level swaps: impl %d, oracle %d", si, so)
		}
	}
	return nil
}

// Replay applies a schedule, checking full state equivalence after
// every operation; it returns the first divergence with its index.
func (d *CacheDiff) Replay(ops []Op) error {
	for i, op := range ops {
		if err := d.Apply(op); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if err := d.CheckState(); err != nil {
			return fmt.Errorf("after op %d (%v): %w", i, op.Kind, err)
		}
	}
	return nil
}

// Policy names accepted by NewRefreshDiff.
const (
	PolicyBaseline     = "baseline"
	PolicyValidOnly    = "valid-only"
	PolicyRPV          = "rpv"
	PolicyRPD          = "rpd"
	PolicySmartRefresh = "smart-refresh"
)

// RefreshPolicies lists every policy the refresh harness can verify.
var RefreshPolicies = []string{
	PolicyBaseline, PolicyValidOnly, PolicyRPV, PolicyRPD, PolicySmartRefresh,
}

// RefreshDiff replays schedules through two full cache+refresh stacks:
// the production cache with a production refresh policy and engine,
// and the oracle cache with the matching per-line reference bookkeeper
// and the naive engine mirror.
type RefreshDiff struct {
	Cache *CacheDiff

	implClock *edram.Clock
	orcClock  *edram.Clock
	implEng   *edram.Engine
	orcEng    *oracle.Engine

	implRPD *refrint.RPD
	orcPoly *oracle.PolyphaseRef
	implSR  *smartref.Policy
	orcSR   *oracle.SmartRefreshRef

	cycle uint64
}

// NewRefreshDiff assembles both stacks for the named policy. phases is
// the Refrint phase count / Smart-Refresh period count; retention is
// the retention window in cycles.
func NewRefreshDiff(p cache.Params, policy string, phases int, retention uint64) (*RefreshDiff, error) {
	cd, err := NewCacheDiff(p)
	if err != nil {
		return nil, err
	}
	d := &RefreshDiff{
		Cache:     cd,
		implClock: &edram.Clock{},
		orcClock:  &edram.Clock{},
	}
	var implPolicy, orcPolicy edram.Policy
	switch policy {
	case PolicyBaseline:
		implPolicy = edram.NewRefreshAll(cd.Impl)
		orcPolicy = &oracle.RefreshAllRef{C: cd.Orc}
	case PolicyValidOnly:
		implPolicy = edram.NewValidOnly(cd.Impl)
		orcPolicy = &oracle.ValidOnlyRef{C: cd.Orc}
	case PolicyRPV:
		rpv, err := refrint.NewRPV(cd.Impl, d.implClock, phases, retention)
		if err != nil {
			return nil, err
		}
		ref, err := oracle.NewPolyphaseRef(cd.Orc, d.orcClock, phases, retention, false)
		if err != nil {
			return nil, err
		}
		d.orcPoly = ref
		implPolicy, orcPolicy = rpv, ref
		cd.observed = true // the policy watches line touches
	case PolicyRPD:
		rpd, err := refrint.NewRPD(cd.Impl, d.implClock, phases, retention)
		if err != nil {
			return nil, err
		}
		ref, err := oracle.NewPolyphaseRef(cd.Orc, d.orcClock, phases, retention, true)
		if err != nil {
			return nil, err
		}
		d.implRPD, d.orcPoly = rpd, ref
		implPolicy, orcPolicy = rpd, ref
		cd.observed = true // the policy watches line touches
	case PolicySmartRefresh:
		sr, err := smartref.New(cd.Impl, phases)
		if err != nil {
			return nil, err
		}
		ref, err := oracle.NewSmartRefreshRef(cd.Orc, phases)
		if err != nil {
			return nil, err
		}
		d.implSR, d.orcSR = sr, ref
		implPolicy, orcPolicy = sr, ref
		cd.observed = true // the policy watches line touches
	default:
		return nil, fmt.Errorf("verify: unknown policy %q", policy)
	}
	implEng, err := edram.NewEngine(edram.Params{RetentionCycles: retention, Banks: p.Banks}, implPolicy)
	if err != nil {
		return nil, err
	}
	orcEng, err := oracle.NewEngine(edram.Params{RetentionCycles: retention, Banks: p.Banks}, orcPolicy)
	if err != nil {
		return nil, fmt.Errorf("oracle engine rejected params the implementation accepted: %w", err)
	}
	d.implEng, d.orcEng = implEng, orcEng
	return d, nil
}

// Cycle returns the harness's current simulated cycle.
func (d *RefreshDiff) Cycle() uint64 { return d.cycle }

// Apply executes one operation on both stacks. Accesses happen at the
// current cycle (both clocks are set first, as the simulator does);
// OpAdvance moves time forward and fires due refresh events through
// both engines.
func (d *RefreshDiff) Apply(op Op) error {
	d.implClock.Cycle = d.cycle
	d.orcClock.Cycle = d.cycle
	switch op.Kind {
	case OpAdvance:
		d.cycle += op.Delta
		d.implEng.AdvanceTo(d.cycle)
		d.orcEng.AdvanceTo(d.cycle)
	case OpRead, OpWrite, OpReadMRU, OpWriteMRU:
		// Compare the refresh-induced stall the access would see, then
		// perform it (AccessDelay advances both engines to the cycle).
		bank := d.Cache.Impl.BankOf(d.Cache.Impl.SetIndex(op.Addr))
		di := d.implEng.AccessDelay(bank, d.cycle)
		do := d.orcEng.AccessDelay(bank, d.cycle)
		if di != do {
			return fmt.Errorf("access delay bank %d cycle %d: impl %d, oracle %d", bank, d.cycle, di, do)
		}
		return d.Cache.Apply(op)
	default:
		return d.Cache.Apply(op)
	}
	return nil
}

// CheckState compares the two stacks: full cache state, engine
// refresh/busy accounting, per-bank stall exposure and the
// policy-specific bookkeeping (eager invalidations, skipped
// refreshes, tracked-line conservation).
func (d *RefreshDiff) CheckState() error {
	if err := d.Cache.CheckState(); err != nil {
		return err
	}
	if a, b := d.implEng.TotalRefreshed(), d.orcEng.TotalRefreshed(); a != b {
		return fmt.Errorf("total refreshed: impl %d, oracle %d", a, b)
	}
	if a, b := d.implEng.IntervalRefreshed(), d.orcEng.IntervalRefreshed(); a != b {
		return fmt.Errorf("interval refreshed: impl %d, oracle %d", a, b)
	}
	if a, b := d.implEng.TotalBusyCycles(), d.orcEng.TotalBusyCycles(); a != b {
		return fmt.Errorf("busy cycles: impl %d, oracle %d", a, b)
	}
	if a, b := d.implEng.Events(), d.orcEng.Events(); a != b {
		return fmt.Errorf("events: impl %d, oracle %d", a, b)
	}
	for b := 0; b < d.Cache.p.Banks; b++ {
		if ai, ao := d.implEng.AccessDelay(b, d.cycle), d.orcEng.AccessDelay(b, d.cycle); ai != ao {
			return fmt.Errorf("bank %d delay at %d: impl %d, oracle %d", b, d.cycle, ai, ao)
		}
	}
	if d.implRPD != nil {
		if a, b := d.implRPD.Invalidated(), d.orcPoly.Invalidations; a != b {
			return fmt.Errorf("RPD invalidations: impl %d, oracle %d", a, b)
		}
	}
	if d.orcPoly != nil {
		// Tracked-line conservation: every valid line carries a phase.
		if tr, vl := d.orcPoly.TrackedLines(), d.Cache.Orc.ValidLines(); tr != vl {
			return fmt.Errorf("oracle polyphase tracks %d lines, cache holds %d", tr, vl)
		}
	}
	if d.implSR != nil {
		if a, b := d.implSR.IntervalPolicyStats().SkippedRefreshes, d.orcSR.Skipped; a != b {
			return fmt.Errorf("smart-refresh skips: impl %d, oracle %d", a, b)
		}
	}
	return nil
}

// Replay applies a schedule, checking full state equivalence after
// every operation.
func (d *RefreshDiff) Replay(ops []Op) error {
	for i, op := range ops {
		if err := d.Apply(op); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if err := d.CheckState(); err != nil {
			return fmt.Errorf("after op %d (%v): %w", i, op.Kind, err)
		}
	}
	return nil
}
