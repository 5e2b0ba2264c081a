package verify

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/edram"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestPropDoublingWaysNeverDecreasesHits is the LRU inclusion
// property: with the set count held fixed, a cache with 2A ways
// contains everything an A-way cache holds at every point of any pure
// access trace, so its hit count can never be lower.
func TestPropDoublingWaysNeverDecreasesHits(t *testing.T) {
	shapes := []struct {
		sets, assoc, line int
	}{
		{64, 2, 64}, {64, 4, 64}, {128, 4, 32}, {32, 8, 64}, {256, 1, 64},
	}
	for _, sh := range shapes {
		small := cache.Params{
			Name: "small", SizeBytes: sh.sets * sh.assoc * sh.line,
			Assoc: sh.assoc, LineBytes: sh.line, Modules: 1, Banks: 1,
		}
		big := small
		big.Name = "big"
		big.SizeBytes *= 2
		big.Assoc *= 2
		cs, err := cache.New(small)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := cache.New(big)
		if err != nil {
			t.Fatal(err)
		}
		if cs.NumSets() != cb.NumSets() {
			t.Fatalf("set counts differ: %d vs %d", cs.NumSets(), cb.NumSets())
		}
		rng := xrand.New(uint64(0xA5A5 + sh.sets*31 + sh.assoc))
		lineSpan := uint64(3 * sh.sets * sh.assoc)
		for i := 0; i < 30_000; i++ {
			addr := cache.Addr(rng.Uint64n(lineSpan) * uint64(sh.line))
			write := rng.Intn(4) == 0
			cs.Access(addr, write)
			cb.Access(addr, write)
			if cb.TotalCounters().Hits < cs.TotalCounters().Hits {
				t.Fatalf("sets=%d assoc=%d: after %d accesses, %d-way hits %d < %d-way hits %d",
					sh.sets, sh.assoc, i+1, big.Assoc, cb.TotalCounters().Hits,
					small.Assoc, cs.TotalCounters().Hits)
			}
		}
	}
}

// TestPropValidOnlyRefreshesAtMostRefreshAll replays one schedule
// through two identical caches, one refreshed by the periodic-all
// baseline and one by the valid-line-only policy, and asserts the
// valid-only refresh count (and hence refresh energy, which is linear
// in it) never exceeds the baseline's.
func TestPropValidOnlyRefreshesAtMostRefreshAll(t *testing.T) {
	p := cache.Params{
		Name: "vo", SizeBytes: 64 * 4 * 64, Assoc: 4, LineBytes: 64,
		Modules: 2, SamplingRatio: 8, Banks: 2,
	}
	const retention = 8_000
	ca, err := cache.New(p)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := cache.New(p)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := edram.NewEngine(edram.Params{RetentionCycles: retention, Banks: p.Banks}, edram.NewRefreshAll(ca))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := edram.NewEngine(edram.Params{RetentionCycles: retention, Banks: p.Banks}, edram.NewValidOnly(cv))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0x7A11D)
	ops := RandomOps(rng, p, 6_000, retention)
	var cycle uint64
	for i, op := range ops {
		switch op.Kind {
		case OpAdvance:
			cycle += op.Delta
			ea.AdvanceTo(cycle)
			ev.AdvanceTo(cycle)
		case OpRead, OpWrite, OpReadMRU, OpWriteMRU:
			write := op.Kind == OpWrite || op.Kind == OpWriteMRU
			ca.Access(op.Addr, write)
			cv.Access(op.Addr, write)
		case OpReconfigure:
			ca.SetActiveWays(op.Module, op.Ways)
			cv.SetActiveWays(op.Module, op.Ways)
		case OpInvalidateLine:
			ca.InvalidateLine(op.Set, op.Way)
			cv.InvalidateLine(op.Set, op.Way)
		case OpInvalidateAll:
			ca.InvalidateAll()
			cv.InvalidateAll()
		}
		if ev.TotalRefreshed() > ea.TotalRefreshed() {
			t.Fatalf("op %d: valid-only refreshed %d > refresh-all %d",
				i, ev.TotalRefreshed(), ea.TotalRefreshed())
		}
	}
	if ea.TotalRefreshed() == 0 {
		t.Fatal("schedule never advanced past a refresh window")
	}
}

// TestPropLeaderHistogramMatchesFullTrace drives every set with the
// identical tag sequence, so per-set behaviour is uniform and the ATD
// leader-set histogram, scaled by the sampling ratio, must equal the
// histogram a fully profiled (SamplingRatio=1) cache collects over the
// whole trace — the exactness behind the paper's set-sampling claim.
func TestPropLeaderHistogramMatchesFullTrace(t *testing.T) {
	const rs = 8
	sampled := cache.Params{
		Name: "sampled", SizeBytes: 64 * 4 * 64, Assoc: 4, LineBytes: 64,
		Modules: 2, SamplingRatio: rs, Banks: 2,
	}
	full := sampled
	full.Name = "full"
	full.SamplingRatio = 1
	cs, err := cache.New(sampled)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cache.New(full)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xA7D)
	numSets := cs.NumSets()
	// A small tag pool revisited repeatedly produces hits across all
	// stack positions.
	for i := 0; i < 400; i++ {
		tag := rng.Uint64n(uint64(sampled.Assoc) + 2)
		for s := 0; s < numSets; s++ {
			addr := cache.Addr((tag*uint64(numSets) + uint64(s)) * uint64(sampled.LineBytes))
			cs.Access(addr, false)
			cf.Access(addr, false)
		}
	}
	for m := 0; m < sampled.Modules; m++ {
		hs, hf := cs.HitPositions(m), cf.HitPositions(m)
		for pos := range hs {
			if hs[pos]*rs != hf[pos] {
				t.Fatalf("module %d pos %d: leader count %d × %d != full count %d",
					m, pos, hs[pos], rs, hf[pos])
			}
		}
	}
}

// TestPropSweepByteIdenticalAcrossJobCounts runs the same small sweep
// under several worker-pool widths and asserts the canonical JSON of
// every result is byte-identical — scheduling must not leak into
// simulation outcomes.
func TestPropSweepByteIdenticalAcrossJobCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep determinism check is not short")
	}
	configs := []sim.Technique{sim.Baseline, sim.Esteem, sim.RPV}
	workloads := [][]string{{"gcc"}, {"mcf"}}
	run := func(workers int) [][]byte {
		s := runner.NewSweep(workers)
		var jobs []*runner.SimJob
		for _, tech := range configs {
			for _, wl := range workloads {
				cfg := shortConfig(tech)
				cfg.MeasureInstr = 200_000
				jobs = append(jobs, s.Sim(cfg, wl))
			}
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var out [][]byte
		for _, j := range jobs {
			b, err := obs.MarshalCanonical(j.Result())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 5, 8} {
		got := run(workers)
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("workers=%d job %d: result differs from workers=1", workers, i)
			}
		}
	}
}
