package trace

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
)

// FuzzReadTrace hardens the trace-file parser against arbitrary
// input: it must never panic, and any trace it accepts must
// re-serialize to an equivalent stream.
func FuzzReadTrace(f *testing.F) {
	// Seed with a valid trace and a few corruptions of it.
	var buf bytes.Buffer
	p, _ := ProfileByName("gcc")
	g := MustNewGenerator(p, 1)
	if err := WriteTrace(&buf, Record(g, 50), 2); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("ESTEEMT1garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, mlp, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted traces must round-trip.
		var out bytes.Buffer
		if err := WriteTrace(&out, refs, mlp); err != nil {
			// Only negative gaps are rejected by WriteTrace, and
			// ReadTrace can never produce them (uint32 gaps).
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		refs2, mlp2, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-serialized trace rejected: %v", err)
		}
		if len(refs2) != len(refs) || mlp2 != mlp {
			t.Fatalf("round trip changed shape: %d/%v vs %d/%v", len(refs2), mlp2, len(refs), mlp)
		}
	})
}

// FuzzGeneratorProfile hardens profile validation: any profile that
// Validate accepts must produce a generator whose stream does not
// panic.
func FuzzGeneratorProfile(f *testing.F) {
	f.Add(0.3, 0.2, 100, 1.0, 0.1, 0.05, 64, 2.0, uint64(1))
	f.Fuzz(func(t *testing.T, memOp, write float64, hotKB int, zipfS, stream, pointer float64, ptrKB int, mlp float64, seed uint64) {
		p := Profile{
			Name: "fuzz", MemOpFrac: memOp, WriteFrac: write,
			HotKB: hotKB, ZipfS: zipfS,
			StreamFrac: stream, PointerFrac: pointer, PointerKB: ptrKB,
			MLP: mlp,
		}
		if p.Validate() != nil {
			return
		}
		// Bound the work: huge hot regions build huge Zipf tables.
		if hotKB > 1<<20 {
			return
		}
		g, err := NewGenerator(p, seed)
		if err != nil {
			t.Fatalf("validated profile rejected by NewGenerator: %v", err)
		}
		for i := 0; i < 100; i++ {
			r := g.Next()
			if r.Gap < 0 {
				t.Fatal("negative gap")
			}
		}
	})
}

// restoreFuzzProfiles are the profiles FuzzGeneratorRestore restores
// into: between them every pattern, scan loops and phases.
var restoreFuzzProfiles = []string{"gcc", "libquantum", "omnetpp", "mcf", "h264ref"}

// FuzzGeneratorRestore hardens RestoreState against corrupt
// checkpoints: it must never panic, and a state it accepts must keep
// generating every reference inside its pattern's region.
func FuzzGeneratorRestore(f *testing.F) {
	for i, name := range restoreFuzzProfiles {
		_, good := corruptState(f, name, func(*Generator) {})
		f.Add(uint8(i), good)
	}
	for _, tc := range restoreCases {
		for i, name := range restoreFuzzProfiles {
			if name == tc.profile {
				_, state := corruptState(f, name, tc.mutate)
				f.Add(uint8(i), state)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		p, _ := ProfileByName(restoreFuzzProfiles[int(which)%len(restoreFuzzProfiles)])
		g := MustNewGenerator(p, 1)
		if g.RestoreState(ckpt.NewReader(state)) != nil {
			return
		}
		for i := 0; i < 2000; i++ {
			if r := g.Next(); !g.inRegion(r) {
				t.Fatalf("ref %d: %s address %#x outside its region", i, kindName(r.Kind), r.Addr)
			}
		}
	})
}

func kindName(k Kind) string {
	return [...]string{"hot", "stream", "scan", "pointer", "local"}[k]
}

// inRegion reports whether r lies inside the region its Kind draws
// from.
func (g *Generator) inRegion(r Ref) bool {
	switch r.Kind {
	case KindStream:
		return r.Addr-streamBase < g.streamBytes
	case KindScan:
		off := r.Addr - scanBase
		i := off >> 32
		return i < uint64(len(g.scanSize)) && off&(1<<32-1) < g.scanSize[i]
	case KindPointer:
		return r.Addr-pointerBase < g.pointerLines*lineBytes
	case KindLocal:
		return r.Addr-localBase < g.localWords*strideBytes
	default:
		return r.Addr-hotBase < g.maxHotBytes()
	}
}
