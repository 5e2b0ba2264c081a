package cpu

import (
	"testing"

	"repro/internal/trace"
)

func newCore(t testing.TB) *Core {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	return New(0, trace.MustNewGenerator(p, 1))
}

func TestNextRefAdvancesClockAndInstructions(t *testing.T) {
	c := newCore(t)
	r := c.NextRef()
	want := uint64(r.Gap) + 1
	if c.Instructions() != want {
		t.Fatalf("instructions = %d, want %d", c.Instructions(), want)
	}
	if c.Clock() != want {
		t.Fatalf("clock = %d, want %d (base CPI 1)", c.Clock(), want)
	}
}

func TestStallAccounting(t *testing.T) {
	c := newCore(t)
	c.Stall(12, StallL2Hit)
	c.Stall(220, StallMemory)
	c.Stall(30, StallRefresh)
	c.Stall(0, StallMemory) // no-op
	if c.Clock() != 262 {
		t.Fatalf("clock = %d, want 262", c.Clock())
	}
	if c.StallCycles(StallL2Hit) != 12 || c.StallCycles(StallMemory) != 220 || c.StallCycles(StallRefresh) != 30 {
		t.Fatal("stall breakdown wrong")
	}
	if c.Instructions() != 0 {
		t.Fatal("stalls must not retire instructions")
	}
}

func TestStallKindString(t *testing.T) {
	if StallL2Hit.String() != "l2-hit" || StallRefresh.String() != "refresh" || StallMemory.String() != "memory" {
		t.Fatal("stall names wrong")
	}
	if StallKind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestMeasurementWindow(t *testing.T) {
	c := newCore(t)
	// Warmup: run some refs before measuring.
	for i := 0; i < 100; i++ {
		c.NextRef()
	}
	warmClock := c.Clock()
	c.BeginMeasurement(1000)
	if c.MeasurementDone() {
		t.Fatal("measurement done immediately")
	}
	for !c.MeasurementDone() {
		c.NextRef()
		c.Stall(5, StallL2Hit)
	}
	mi := c.MeasuredInstructions()
	if mi < 1000 {
		t.Fatalf("measured instructions = %d, want >= 1000", mi)
	}
	// Budget can overshoot by at most one ref's gap.
	if mi > 1100 {
		t.Fatalf("measured instructions = %d, overshot far beyond budget", mi)
	}
	if c.MeasuredCycles() == 0 || c.MeasuredCycles() < mi {
		t.Fatalf("measured cycles = %d implausible (stalls added)", c.MeasuredCycles())
	}
	if c.Clock() <= warmClock {
		t.Fatal("clock did not advance during measurement")
	}
}

func TestIPCExcludesPostWindowExecution(t *testing.T) {
	c := newCore(t)
	c.BeginMeasurement(500)
	for !c.MeasurementDone() {
		c.NextRef()
	}
	ipcAtEnd := c.IPC()
	// Keep running with heavy stalls: IPC must not change.
	for i := 0; i < 200; i++ {
		c.NextRef()
		c.Stall(1000, StallMemory)
	}
	if c.IPC() != ipcAtEnd {
		t.Fatalf("IPC changed after window closed: %v vs %v", c.IPC(), ipcAtEnd)
	}
}

func TestIPCWithNoStallsIsOne(t *testing.T) {
	c := newCore(t)
	c.BeginMeasurement(1000)
	for !c.MeasurementDone() {
		c.NextRef()
	}
	if ipc := c.IPC(); ipc != 1 {
		t.Fatalf("stall-free IPC = %v, want exactly 1 (base CPI 1)", ipc)
	}
}

func TestIPCWithStalls(t *testing.T) {
	c := newCore(t)
	c.BeginMeasurement(1000)
	for !c.MeasurementDone() {
		c.NextRef()
		c.Stall(10, StallMemory)
	}
	if ipc := c.IPC(); ipc >= 1 || ipc <= 0 {
		t.Fatalf("stalled IPC = %v, want in (0,1)", ipc)
	}
}

func TestIPCZeroBeforeMeasurement(t *testing.T) {
	c := newCore(t)
	if c.IPC() != 0 {
		t.Fatal("IPC before measurement should be 0")
	}
}

func TestBeginMeasurementPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero budget accepted")
		}
	}()
	newCore(t).BeginMeasurement(0)
}

func TestID(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	c := New(3, trace.MustNewGenerator(p, 1))
	if c.ID() != 3 {
		t.Fatal("ID wrong")
	}
}

// wrapped hides a Generator behind the Source interface, forcing the
// core onto its interface path.
type wrapped struct{ trace.Source }

// TestNextRefDirectMatchesInterface checks the devirtualised
// generator pull and the interface path produce the same relocated
// references and the same retired instructions.
func TestNextRefDirectMatchesInterface(t *testing.T) {
	p, _ := trace.ProfileByName("omnetpp")
	const off = uint64(1) << 44
	direct := NewRelocated(1, trace.MustNewGenerator(p, 5), off)
	iface := NewRelocated(1, wrapped{trace.MustNewGenerator(p, 5)}, off)
	plain := trace.MustNewGenerator(p, 5)
	for i := 0; i < 10_000; i++ {
		a, b, want := direct.NextRef(), iface.NextRef(), plain.Next()
		want.Addr += off
		if a != want || b != want {
			t.Fatalf("ref %d: direct %+v, interface %+v, want %+v", i, a, b, want)
		}
	}
	if direct.Instructions() != iface.Instructions() || direct.Clock() != iface.Clock() {
		t.Fatal("direct and interface paths retired different instruction counts")
	}
}
