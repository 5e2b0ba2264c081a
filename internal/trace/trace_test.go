package trace

import (
	"testing"
	"testing/quick"
)

func TestAllProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 34 {
		t.Fatalf("profile count = %d, want 34 (29 SPEC + 5 HPC)", len(ps))
	}
	seenName := map[string]bool{}
	seenAc := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seenName[p.Name] {
			t.Errorf("duplicate name %s", p.Name)
		}
		if seenAc[p.Acronym] {
			t.Errorf("duplicate acronym %s", p.Acronym)
		}
		seenName[p.Name] = true
		seenAc[p.Acronym] = true
	}
}

func TestDualCoreWorkloads(t *testing.T) {
	mixes := DualCoreWorkloads()
	if len(mixes) != 17 {
		t.Fatalf("mix count = %d, want 17", len(mixes))
	}
	// Each benchmark is used only once across the 17 mixes (paper:
	// "such that each benchmark is used only once").
	used := map[string]bool{}
	for _, m := range mixes {
		for _, name := range m {
			if _, ok := ProfileByName(name); !ok {
				t.Errorf("mix references unknown benchmark %q", name)
			}
			if used[name] {
				t.Errorf("benchmark %q used in two mixes", name)
			}
			used[name] = true
		}
	}
	if len(used) != 34 {
		t.Errorf("mixes cover %d benchmarks, want all 34", len(used))
	}
}

func TestMixAcronym(t *testing.T) {
	if got := MixAcronym("gobmk", "nekbone"); got != "GkNe" {
		t.Errorf("MixAcronym = %q, want GkNe", got)
	}
	if got := MixAcronym("gemsFDTD", "dealII"); got != "GmDl" {
		t.Errorf("MixAcronym = %q, want GmDl", got)
	}
}

func TestLookup(t *testing.T) {
	p, ok := ProfileByName("gamess")
	if !ok || p.Acronym != "Ga" {
		t.Fatal("gamess lookup failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("bogus name found")
	}
	p, ok = ProfileByAcronym("Lq")
	if !ok || p.Name != "libquantum" {
		t.Fatal("acronym lookup failed")
	}
	if _, ok := ProfileByAcronym("ZZ"); ok {
		t.Fatal("bogus acronym found")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("gcc")
	a := MustNewGenerator(p, 42)
	b := MustNewGenerator(p, 42)
	for i := 0; i < 10000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("streams diverged at ref %d: %+v vs %+v", i, ra, rb)
		}
	}
	// A different seed gives a different stream.
	c := MustNewGenerator(p, 43)
	diff := 0
	d := MustNewGenerator(p, 42)
	for i := 0; i < 1000; i++ {
		if c.Next() != d.Next() {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestGeneratorSeedsDifferAcrossBenchmarks(t *testing.T) {
	pa, _ := ProfileByName("gamess")
	pb, _ := ProfileByName("povray")
	// Same seed, different benchmark → different stream (name is
	// hashed into the seed).
	a := MustNewGenerator(pa, 7)
	b := MustNewGenerator(pb, 7)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("streams nearly identical across benchmarks: %d/1000", same)
	}
}

func TestHotRegionBounded(t *testing.T) {
	p, _ := ProfileByName("gamess") // 20 KB hot set, no stream/scan
	g := MustNewGenerator(p, 1)
	for i := 0; i < 20000; i++ {
		r := g.Next()
		switch r.Kind {
		case KindHot:
			if r.Addr >= 20*1024 {
				t.Fatalf("gamess hot address %#x outside its 20 KB region", r.Addr)
			}
		case KindLocal:
			if r.Addr < localBase || r.Addr >= localBase+8*1024 {
				t.Fatalf("local address %#x outside the 8 KB local region", r.Addr)
			}
		default:
			t.Fatalf("gamess produced kind %d", r.Kind)
		}
	}
}

func TestStreamingAdvances(t *testing.T) {
	p, _ := ProfileByName("libquantum") // 90% streaming
	g := MustNewGenerator(p, 1)
	distinct := map[uint64]bool{}
	streamRefs := 0
	for i := 0; i < 50000; i++ {
		r := g.Next()
		if r.Addr >= streamBase {
			streamRefs++
			distinct[r.Addr] = true
		}
	}
	// StreamFrac 0.85 dilated by hot bursts (BurstRefs=2) gives an
	// effective stream share of ~0.74.
	if streamRefs < 34000 {
		t.Fatalf("libquantum produced %d stream refs of 50000, want ~37000", streamRefs)
	}
	// Streaming must not repeat addresses within a short window.
	if len(distinct) != streamRefs {
		t.Fatalf("stream repeated addresses: %d distinct of %d", len(distinct), streamRefs)
	}
}

func TestScanLoopsCycle(t *testing.T) {
	p, _ := ProfileByName("omnetpp")
	g := MustNewGenerator(p, 1)
	scanRefs := map[int]int{} // loop index → count
	for i := 0; i < 100000; i++ {
		r := g.Next()
		if r.Addr >= scanBase && r.Addr < streamBase {
			scanRefs[int((r.Addr-scanBase)>>32)]++
		}
	}
	if len(scanRefs) != 4 {
		t.Fatalf("expected 4 scan loops, saw %d", len(scanRefs))
	}
	// Round-robin: loop counts within 1 of each other.
	var minC, maxC int
	first := true
	for _, c := range scanRefs {
		if first {
			minC, maxC = c, c
			first = false
		}
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > 1 {
		t.Fatalf("scan loops unbalanced: min %d max %d", minC, maxC)
	}
}

func TestWriteFraction(t *testing.T) {
	p, _ := ProfileByName("lbm") // 45% writes
	g := MustNewGenerator(p, 3)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.42 || frac > 0.48 {
		t.Fatalf("lbm write fraction = %v, want ~0.45", frac)
	}
}

func TestGapMatchesMemOpFrac(t *testing.T) {
	p, _ := ProfileByName("gobmk") // MemOpFrac 0.30
	g := MustNewGenerator(p, 5)
	var totalInstr, refs float64
	for i := 0; i < 100000; i++ {
		r := g.Next()
		totalInstr += float64(r.Gap) + 1
		refs++
	}
	frac := refs / totalInstr
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("memory-op fraction = %v, want ~0.30", frac)
	}
}

func TestPhasesSwitch(t *testing.T) {
	p, _ := ProfileByName("h264ref")
	g := MustNewGenerator(p, 1)
	phases := map[int]bool{}
	// Run long enough to cycle all 4 phases (400k refs each).
	for i := 0; i < 1_700_000; i++ {
		g.Next()
		phases[g.Phase()] = true
	}
	if len(phases) != 4 {
		t.Fatalf("saw %d phases, want 4", len(phases))
	}
}

func TestPhaseChangesFootprint(t *testing.T) {
	p := Profile{
		Name: "phasy", Acronym: "Ph", MemOpFrac: 0.5, WriteFrac: 0,
		HotKB: 64, ZipfS: 0.2, LocalFrac: -1,
		PhaseLenRefs: 10000, PhaseHotKB: []int{64, 4096},
	}
	g := MustNewGenerator(p, 1)
	maxPhase0 := uint64(0)
	for i := 0; i < 10000; i++ {
		if a := g.Next().Addr; a > maxPhase0 {
			maxPhase0 = a
		}
	}
	if maxPhase0 >= 64*1024 {
		t.Fatalf("phase 0 exceeded 64 KB: %#x", maxPhase0)
	}
	maxPhase1 := uint64(0)
	for i := 0; i < 10000; i++ {
		if a := g.Next().Addr; a > maxPhase1 {
			maxPhase1 = a
		}
	}
	if maxPhase1 <= 64*1024 {
		t.Fatalf("phase 1 did not widen the footprint: max %#x", maxPhase1)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := Profile{Name: "x", MemOpFrac: 0.3, HotKB: 64}
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemOpFrac = 0 },
		func(p *Profile) { p.MemOpFrac = 1.5 },
		func(p *Profile) { p.WriteFrac = -0.1 },
		func(p *Profile) { p.HotKB = 0 },
		func(p *Profile) { p.StreamFrac = 0.7; p.ScanFrac = 0.5 },
		func(p *Profile) { p.ScanFrac = 0.3 }, // no loops
		func(p *Profile) { p.ScanFrac = 0.3; p.ScanLoopKB = []int{0} },
		func(p *Profile) { p.PhaseLenRefs = 100 }, // no phase sizes
		func(p *Profile) { p.PhaseLenRefs = 100; p.PhaseHotKB = []int{-1} },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base profile rejected: %v", err)
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	if _, err := NewGenerator(Profile{}, 1); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// Property: addresses are always word-aligned (8-byte stride).
func TestAddressesWordAligned(t *testing.T) {
	err := quick.Check(func(seed uint64, which uint8) bool {
		ps := Profiles()
		p := ps[int(which)%len(ps)]
		g := MustNewGenerator(p, seed)
		for i := 0; i < 200; i++ {
			if g.Next().Addr%strideBytes != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: a reference's Kind matches the address region it falls
// in.
func TestKindMatchesRegion(t *testing.T) {
	p, _ := ProfileByName("omnetpp") // hot + scan + pointer
	g := MustNewGenerator(p, 9)
	for i := 0; i < 50000; i++ {
		r := g.Next()
		switch {
		case r.Addr >= pointerBase:
			if r.Kind != KindPointer {
				t.Fatalf("pointer-region ref tagged %d", r.Kind)
			}
		case r.Addr >= streamBase:
			if r.Kind != KindStream {
				t.Fatalf("stream-region ref tagged %d", r.Kind)
			}
		case r.Addr >= scanBase:
			if r.Kind != KindScan {
				t.Fatalf("scan-region ref tagged %d", r.Kind)
			}
		case r.Addr >= localBase:
			if r.Kind != KindLocal {
				t.Fatalf("local-region ref tagged %d", r.Kind)
			}
		default:
			if r.Kind != KindHot {
				t.Fatalf("hot-region ref tagged %d", r.Kind)
			}
		}
	}
}

func TestBurstsStayInLine(t *testing.T) {
	p, _ := ProfileByName("milc") // BurstRefs 8
	g := MustNewGenerator(p, 2)
	var lastLine uint64 = ^uint64(0)
	burstLen := 0
	maxBurst := 0
	for i := 0; i < 100000; i++ {
		r := g.Next()
		if r.Kind != KindHot {
			lastLine = ^uint64(0)
			continue
		}
		line := r.Addr / 64
		if line == lastLine {
			burstLen++
			if burstLen > maxBurst {
				maxBurst = burstLen
			}
		} else {
			burstLen = 0
		}
		lastLine = line
	}
	if maxBurst < 4 {
		t.Fatalf("milc (BurstRefs=8) max same-line run = %d, want bursts", maxBurst)
	}
}

func TestEffectiveMLP(t *testing.T) {
	if (Profile{}).EffectiveMLP() != 1 {
		t.Fatal("zero MLP should default to 1")
	}
	if (Profile{MLP: 6}).EffectiveMLP() != 6 {
		t.Fatal("explicit MLP not honoured")
	}
	if (Profile{MLP: 0.5}).EffectiveMLP() != 1 {
		t.Fatal("sub-1 MLP should clamp to 1")
	}
}

func TestBoundedStreamWraps(t *testing.T) {
	p := Profile{
		Name: "wrapper", MemOpFrac: 0.5, HotKB: 16, ZipfS: 0.5,
		StreamFrac: 1.0, StreamKB: 1, // 1 KB stream region: wraps fast
	}
	g := MustNewGenerator(p, 1)
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		seen[g.Next().Addr]++
	}
	if len(seen) != 128 { // 1 KB / 8 B stride
		t.Fatalf("bounded stream visited %d addresses, want 128", len(seen))
	}
}

// BenchmarkGeneratorNext times Next per dominant access pattern.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{
		"gamess",     // local/hot: almost every ref is L1-resident
		"libquantum", // stream
		"omnetpp",    // scan loops
		"mcf",        // pointer chasing
		"h264ref",    // phased working set
	} {
		b.Run(name, func(b *testing.B) {
			p, _ := ProfileByName(name)
			g := MustNewGenerator(p, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

func TestQuadCoreWorkloads(t *testing.T) {
	mixes := QuadCoreWorkloads()
	if len(mixes) != 8 {
		t.Fatalf("quad mixes = %d, want 8", len(mixes))
	}
	used := map[string]bool{}
	for _, m := range mixes {
		for _, name := range m {
			if _, ok := ProfileByName(name); !ok {
				t.Errorf("quad mix references unknown benchmark %q", name)
			}
			if used[name] {
				t.Errorf("benchmark %q reused across quad mixes", name)
			}
			used[name] = true
		}
	}
}

func TestGeneratorAccessors(t *testing.T) {
	p, _ := ProfileByName("gcc")
	g := MustNewGenerator(p, 1)
	if g.Profile().Name != "gcc" || g.Name() != "gcc" {
		t.Fatal("profile accessor wrong")
	}
	g.Next()
	g.Next()
	if g.Refs() != 2 {
		t.Fatalf("Refs = %d, want 2", g.Refs())
	}
	if (Profile{LocalKB: 16}).EffectiveLocalKB() != 16 {
		t.Fatal("explicit LocalKB not honoured")
	}
}
