package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCheckpointRoundTrip drives the checkpoint subsystem over
// fuzzer-chosen configurations: run a short horizon while saving
// checkpoints, then extend to a longer horizon both cold and by
// resuming from the deepest usable checkpoint, and require the two
// paths to agree exactly — the same Result and, afterwards, the same
// serialised state bytes.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint64(1), uint16(2), uint16(3), uint16(7), false)   // esteem, gcc
	f.Add(uint8(0), uint8(1), uint64(7), uint16(1), uint16(2), uint16(5), true)    // baseline, mcf
	f.Add(uint8(1), uint8(2), uint64(42), uint16(3), uint16(4), uint16(9), false)  // rpv, omnetpp
	f.Add(uint8(2), uint8(3), uint64(9), uint16(2), uint16(2), uint16(6), true)    // rpd, libquantum
	f.Add(uint8(7), uint8(4), uint64(3), uint16(1), uint16(5), uint16(11), false)  // smart-refresh, h264ref
	f.Add(uint8(8), uint8(0), uint64(1000), uint16(4), uint16(3), uint16(8), true) // ecc, gcc
	// Restores that must pass the generator's range checks: omnetpp
	// mid-scan and libquantum mid-stream at the longest horizons.
	f.Add(uint8(4), uint8(2), uint64(5), uint16(3), uint16(5), uint16(7), false) // esteem, omnetpp
	f.Add(uint8(1), uint8(3), uint64(11), uint16(3), uint16(5), uint16(7), true) // rpv, libquantum

	benches := []string{"gcc", "mcf", "omnetpp", "libquantum", "h264ref"}

	f.Fuzz(func(t *testing.T, techB, benchB uint8, seed uint64, warmU, shortU, longU uint16, logIntervals bool) {
		tech := Technique(int(techB) % (int(maxTechnique) + 1))
		bench := benches[int(benchB)%len(benches)]
		// Budgets in units of 25k instructions, bounded so one fuzz
		// case stays in the low milliseconds.
		warm := 25_000 * (1 + uint64(warmU)%4)    // 25k..100k
		shortM := 25_000 * (1 + uint64(shortU)%6) // 25k..150k
		longM := shortM + 25_000*(1+uint64(longU)%8)

		cfg := DefaultConfig(1)
		cfg.Technique = tech
		cfg.Seed = seed
		cfg.WarmupInstr = warm
		cfg.MeasureInstr = shortM
		cfg.IntervalCycles = 50_000
		cfg.LogIntervals = logIntervals
		long := cfg
		long.MeasureInstr = longM
		bm := []string{bench}

		// Short run, saving every checkpoint.
		s1, err := New(cfg, bm)
		if err != nil {
			t.Fatal(err)
		}
		type saved struct {
			info CheckpointInfo
			data []byte
		}
		var ckpts []saved
		s1.SetCheckpointHook(func(info CheckpointInfo) {
			b, err := s1.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint at seq %d: %v", info.Seq, err)
			}
			ckpts = append(ckpts, saved{info, b})
		})
		if _, err := s1.Run(); err != nil {
			t.Fatal(err)
		}
		if len(ckpts) == 0 {
			t.Fatal("no checkpoints saved")
		}

		// Cold long run.
		s2, err := New(long, bm)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := s2.Run()
		if err != nil {
			t.Fatal(err)
		}
		coldState, err := s2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}

		// Resume from the deepest usable checkpoint.
		best := -1
		for i, c := range ckpts {
			if c.info.MaxMeasured < long.MeasureInstr {
				best = i
			}
		}
		if best < 0 {
			t.Fatal("no usable checkpoint (long horizon should exceed the short one)")
		}
		s3, err := New(long, bm)
		if err != nil {
			t.Fatal(err)
		}
		if err := s3.RestoreCheckpoint(ckpts[best].data); err != nil {
			t.Fatalf("restore seq %d: %v", ckpts[best].info.Seq, err)
		}
		got, err := s3.ResumeRun()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Fatalf("technique %v bench %s: resumed result differs from cold run (seq %d)", tech, bench, ckpts[best].info.Seq)
		}
		// The end-of-run serialised state must match byte for byte —
		// the strongest statement that resume reconstructed the whole
		// system, not just the reported aggregates.
		gotState, err := s3.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, coldState) {
			t.Fatalf("technique %v bench %s: final serialised state differs after resume", tech, bench)
		}
	})
}
