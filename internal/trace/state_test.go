package trace

import (
	"testing"

	"repro/internal/ckpt"
)

// TestGeneratorStateRoundTrip checkpoints a generator mid-stream and
// verifies the restored generator reproduces the original's future
// exactly — including across working-set phase switches, which
// exercise the Zipf cache rebuild.
func TestGeneratorStateRoundTrip(t *testing.T) {
	for _, name := range []string{"gcc", "h264ref", "omnetpp", "libquantum", "mcf"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		a := MustNewGenerator(p, 0xABCD)
		// Advance into the stream (past a phase switch for h264ref).
		warm := 450_000
		if p.PhaseLenRefs == 0 {
			warm = 50_000
		}
		for i := 0; i < warm; i++ {
			a.Next()
		}
		w := ckpt.NewWriter()
		a.AppendState(w)

		b := MustNewGenerator(p, 0xABCD)
		r := ckpt.NewReader(w.Bytes())
		if err := b.RestoreState(r); err != nil {
			t.Fatalf("%s: RestoreState: %v", name, err)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("%s: trailing state: %v", name, err)
		}
		if b.Refs() != a.Refs() || b.Phase() != a.Phase() {
			t.Fatalf("%s: refs/phase mismatch after restore", name)
		}
		// The futures must agree, across further phase switches too.
		for i := 0; i < 500_000; i++ {
			ra, rb := a.Next(), b.Next()
			if ra != rb {
				t.Fatalf("%s: ref %d diverged: %+v vs %+v", name, i, ra, rb)
			}
		}
	}
}

// TestGeneratorRestoreRejectsCorrupt checks a few corruption modes
// fail loudly rather than restoring garbage.
func TestGeneratorRestoreRejectsCorrupt(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a := MustNewGenerator(p, 1)
	for i := 0; i < 1000; i++ {
		a.Next()
	}
	w := ckpt.NewWriter()
	a.AppendState(w)
	good := w.Bytes()

	// Truncated.
	b := MustNewGenerator(p, 1)
	if err := b.RestoreState(ckpt.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated state restored without error")
	}
	// Wrong section tag.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	b = MustNewGenerator(p, 1)
	if err := b.RestoreState(ckpt.NewReader(bad)); err == nil {
		t.Fatal("corrupt tag restored without error")
	}
	// Mismatched scan geometry (omnetpp state into gcc generator).
	om, _ := ProfileByName("omnetpp")
	o := MustNewGenerator(om, 1)
	for i := 0; i < 1000; i++ {
		o.Next()
	}
	wo := ckpt.NewWriter()
	o.AppendState(wo)
	b = MustNewGenerator(p, 1)
	if err := b.RestoreState(ckpt.NewReader(wo.Bytes())); err == nil {
		t.Fatal("cross-profile state restored without error")
	}
}

// corruptState checkpoints a generator of the named profile after
// 1000 references, with mutate applied to its state first.
func corruptState(t testing.TB, name string, mutate func(*Generator)) (Profile, []byte) {
	p, ok := ProfileByName(name)
	if !ok {
		t.Fatalf("profile %s missing", name)
	}
	g := MustNewGenerator(p, 1)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	mutate(g)
	w := ckpt.NewWriter()
	g.AppendState(w)
	return p, w.Bytes()
}

// restoreCases lists in-range edge states that must restore and
// out-of-range ones that RestoreState must refuse: Next's
// compare-and-reset advances assume in-range, stride-aligned state.
var restoreCases = []struct {
	name    string
	profile string
	mutate  func(*Generator)
	ok      bool
}{
	{"unmodified", "omnetpp", func(*Generator) {}, true},
	{"stream at last word", "libquantum", func(g *Generator) { g.streamPos = g.streamBytes - strideBytes }, true},
	{"stream at region end", "libquantum", func(g *Generator) { g.streamPos = g.streamBytes }, false},
	{"stream past region", "omnetpp", func(g *Generator) { g.streamPos = 1 << 40 }, false},
	{"stream unaligned", "libquantum", func(g *Generator) { g.streamPos = 12 }, false},
	{"scan at last word", "omnetpp", func(g *Generator) { g.scanPos[3] = g.scanSize[3] - strideBytes }, true},
	{"scan at loop end", "omnetpp", func(g *Generator) { g.scanPos[1] = g.scanSize[1] }, false},
	{"scan unaligned", "omnetpp", func(g *Generator) { g.scanPos[2] = 20 }, false},
	{"burst at last word", "gcc", func(g *Generator) { g.burstOff = lineBytes - strideBytes }, true},
	{"burst offset at line end", "gcc", func(g *Generator) { g.burstOff = lineBytes }, false},
	{"burst offset unaligned", "gcc", func(g *Generator) { g.burstOff = 3 }, false},
	{"burst line at region end", "gcc", func(g *Generator) { g.burstLine = hotBase + 768<<10 }, false},
	{"burst line unaligned", "gcc", func(g *Generator) { g.burstLine = hotBase + 5 }, false},
	{"burst line in largest phase", "h264ref", func(g *Generator) { g.burstLine = hotBase + 2048<<10 - lineBytes }, true},
	{"zipf key not a hot size", "gcc", func(g *Generator) { g.zipfCache[999] = g.zipf }, false},
	{"burst length zero", "gcc", func(g *Generator) { g.burstLeft = 0 }, true},
	{"burst length negative", "gcc", func(g *Generator) { g.burstLeft = -1 }, false},
	{"last phase", "h264ref", func(g *Generator) { g.phaseIdx = 3 }, true},
	{"phase past table", "h264ref", func(g *Generator) { g.phaseIdx = 4 }, false},
	{"phase negative", "h264ref", func(g *Generator) { g.phaseIdx = -1 }, false},
	{"phase on single-phase profile", "gcc", func(g *Generator) { g.phaseIdx = 1 }, false},
}

// TestGeneratorRestoreBounds checks RestoreState's range validation
// case by case.
func TestGeneratorRestoreBounds(t *testing.T) {
	for _, tc := range restoreCases {
		p, state := corruptState(t, tc.profile, tc.mutate)
		g := MustNewGenerator(p, 1)
		err := g.RestoreState(ckpt.NewReader(state))
		if tc.ok && err != nil {
			t.Errorf("%s: valid state refused: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: out-of-range state restored", tc.name)
		}
	}
}
