package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// captureCheckpoints runs cfg to completion, serialising at every
// hook firing, and returns (result, checkpoints-by-seq,
// hook-info-by-seq).
func captureCheckpoints(t *testing.T, cfg Config, benchmarks []string) (*Result, map[int][]byte, map[int]CheckpointInfo) {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Checkpointable() {
		t.Fatal("synthetic generators should be checkpointable")
	}
	saved := make(map[int][]byte)
	infos := make(map[int]CheckpointInfo)
	s.SetCheckpointHook(func(info CheckpointInfo) {
		b, err := s.Checkpoint()
		if err != nil {
			t.Errorf("checkpoint at seq %d: %v", info.Seq, err)
			return
		}
		if info.Seq != 0 && info.MaxMeasured == 0 {
			t.Errorf("seq %d: MaxMeasured 0 after a measured boundary", info.Seq)
		}
		saved[info.Seq] = b
		infos[info.Seq] = info
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, saved, infos
}

// bestUsable returns the highest checkpoint sequence whose measured
// prefix is strictly below the given horizon (-1 if none).
func bestUsable(infos map[int]CheckpointInfo, horizon uint64) int {
	best := -1
	for seq, info := range infos {
		if info.MaxMeasured < horizon && seq > best {
			best = seq
		}
	}
	return best
}

// resumeFrom restores a checkpoint into a fresh simulator of cfg and
// runs it to completion.
func resumeFrom(t *testing.T, cfg Config, benchmarks []string, data []byte) *Result {
	t.Helper()
	s, err := New(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreCheckpoint(data); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	res, err := s.ResumeRun()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointResumeByteIdentical is the central contract of the
// checkpoint subsystem: for every technique, a run restored from a
// shorter run's checkpoint and extended to a longer horizon produces
// a result identical to a cold run of the longer horizon, and the
// checkpoint bytes themselves are horizon-independent (the long run
// serialises the same bytes at the same boundary).
func TestCheckpointResumeByteIdentical(t *testing.T) {
	techniques := []Technique{Baseline, RPV, RPD, PeriodicValid, Esteem, EsteemAllLineRefresh, NoRefresh, SmartRefresh, ECCExtended}
	for _, tech := range techniques {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			t.Parallel()
			short := testConfig(1, tech)
			short.WarmupInstr = 100_000
			short.MeasureInstr = 300_000
			short.IntervalCycles = 100_000
			short.LogIntervals = true
			long := short
			long.MeasureInstr = 700_000
			bm := []string{"gcc"}

			_, shortCkpts, shortInfos := captureCheckpoints(t, short, bm)
			cold, longCkpts, _ := captureCheckpoints(t, long, bm)
			if len(shortCkpts) < 2 {
				t.Fatalf("short run produced only %d checkpoints", len(shortCkpts))
			}

			// Horizon independence: same boundary, same bytes,
			// regardless of which run serialised it.
			for seq, b := range shortCkpts {
				if lb, ok := longCkpts[seq]; ok && !bytes.Equal(b, lb) {
					t.Fatalf("seq %d: checkpoint bytes differ between horizons", seq)
				}
			}

			// Resume from the seam and from the deepest usable prefix.
			best := bestUsable(shortInfos, long.MeasureInstr)
			if best < 0 {
				t.Fatal("no usable checkpoint")
			}
			for _, seq := range []int{0, best} {
				got := resumeFrom(t, long, bm, shortCkpts[seq])
				if !reflect.DeepEqual(got, cold) {
					t.Fatalf("seq %d: resumed result differs from cold run", seq)
				}
			}
		})
	}
}

// TestCheckpointResumeDualCore exercises the multi-core scheduler
// path (heap state, per-core offsets, interleaving) through a resume.
func TestCheckpointResumeDualCore(t *testing.T) {
	short := testConfig(2, Esteem)
	short.WarmupInstr = 100_000
	short.MeasureInstr = 250_000
	short.IntervalCycles = 100_000
	long := short
	long.MeasureInstr = 600_000
	bm := []string{"gcc", "mcf"}

	_, shortCkpts, shortInfos := captureCheckpoints(t, short, bm)
	cold, _, _ := captureCheckpoints(t, long, bm)
	best := bestUsable(shortInfos, long.MeasureInstr)
	if best < 0 {
		t.Fatal("no usable checkpoint")
	}
	got := resumeFrom(t, long, bm, shortCkpts[best])
	if !reflect.DeepEqual(got, cold) {
		t.Fatal("dual-core resumed result differs from cold run")
	}
}

// TestCheckpointRejectsWrongConfig checks the sanity header and the
// horizon-usability rule.
func TestCheckpointRejectsWrongConfig(t *testing.T) {
	cfg := testConfig(1, Esteem)
	cfg.WarmupInstr = 50_000
	cfg.MeasureInstr = 200_000
	cfg.IntervalCycles = 100_000
	bm := []string{"gcc"}
	_, ckpts, _ := captureCheckpoints(t, cfg, bm)
	best := -1
	for seq := range ckpts {
		if seq > best {
			best = seq
		}
	}

	restoreInto := func(c Config, names []string, data []byte) error {
		s, err := New(c, names)
		if err != nil {
			t.Fatal(err)
		}
		return s.RestoreCheckpoint(data)
	}

	other := cfg
	other.Technique = Baseline
	if restoreInto(other, bm, ckpts[0]) == nil {
		t.Fatal("restore accepted a different technique")
	}
	other = cfg
	other.Seed = cfg.Seed + 1
	if restoreInto(other, bm, ckpts[0]) == nil {
		t.Fatal("restore accepted a different seed")
	}
	// A horizon the deepest checkpoint has already passed must be
	// refused (its measurement window closed mid-run).
	shorter := cfg
	shorter.MeasureInstr = 1_000
	if restoreInto(shorter, bm, ckpts[best]) == nil {
		t.Fatal("restore accepted a horizon shorter than the measured prefix")
	}
	// Truncated stream.
	if restoreInto(cfg, bm, ckpts[0][:len(ckpts[0])-8]) == nil {
		t.Fatal("restore accepted a truncated checkpoint")
	}
	// ResumeRun without a restore must refuse to run.
	s, err := New(cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResumeRun(); err == nil {
		t.Fatal("ResumeRun ran without a restored checkpoint")
	}
}

// TestCheckpointOutsideMeasurementFails pins the boundary-only
// contract.
func TestCheckpointOutsideMeasurementFails(t *testing.T) {
	s, err := New(testConfig(1, Baseline), []string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded before measurement began")
	}
}

// TestCheckpointRefusesCorruptGenerator patches out-of-range values
// into the workload generator's section of a real checkpoint: the
// restore must refuse each one rather than resume a stream whose
// addresses would leave its pattern's region.
func TestCheckpointRefusesCorruptGenerator(t *testing.T) {
	cfg := testConfig(1, Esteem)
	cfg.WarmupInstr = 50_000
	cfg.MeasureInstr = 100_000
	cfg.IntervalCycles = 50_000
	bm := []string{"gcc"}
	_, ckpts, _ := captureCheckpoints(t, cfg, bm)
	good := ckpts[0]

	// TGEN layout: tag, rng, zipfKey, zipf-cache count n, n (key,
	// state) pairs, streamPos, scanPos (count + words), scanNext,
	// burstLeft, burstLine, burstOff, refs, phaseIdx.
	tgen := bytes.Index(good, []byte("TGEN"))
	if tgen < 0 {
		t.Fatal("no generator section in the checkpoint")
	}
	u64 := func(off int) uint64 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(good[off+i])
		}
		return v
	}
	streamPos := tgen + 4 + 24 + 16*int(u64(tgen+4+16))
	scanNext := streamPos + 16 + 8*int(u64(streamPos+8))
	burstLeft, burstOff, phaseIdx := scanNext+8, scanNext+24, scanNext+40
	if u64(streamPos)%8 != 0 || u64(burstOff) >= 64 || u64(phaseIdx) != 0 || len(good) < phaseIdx+8 {
		t.Fatalf("generator section layout not as this test expects: stream %d burstOff %d phase %d", u64(streamPos), u64(burstOff), u64(phaseIdx))
	}

	restore := func(data []byte) error {
		s, err := New(cfg, bm)
		if err != nil {
			t.Fatal(err)
		}
		return s.RestoreCheckpoint(data)
	}
	if err := restore(good); err != nil {
		t.Fatalf("unmodified checkpoint refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		off  int
		v    uint64
	}{
		{"unaligned stream position", streamPos, 4},
		{"stream position past the region", streamPos, 1 << 40},
		{"burst offset past the line", burstOff, 64},
		{"negative burst length", burstLeft, ^uint64(0)},
		{"phase of a single-phase profile", phaseIdx, 1},
	} {
		bad := append([]byte(nil), good...)
		for i := 0; i < 8; i++ {
			bad[tc.off+i] = byte(tc.v >> (8 * i))
		}
		if restore(bad) == nil {
			t.Errorf("%s: corrupt checkpoint restored", tc.name)
		}
	}
}
