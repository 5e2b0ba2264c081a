// Package cpu models the cores of the simulated system. The paper's
// evaluation runs an out-of-order x86 core in Sniper; for the
// reproduction the core is abstracted to a unit-base-CPI in-order
// engine whose memory stalls come from the cache hierarchy (see
// DESIGN.md for why this preserves the paper's relative-IPC metrics):
// every instruction retires in one cycle, and memory operations add
// the latency the hierarchy reports (L2 access, refresh-induced bank
// stalls, memory queueing and access latency).
//
// The Core tracks the cycle clock, instruction count and a stall
// breakdown, and implements the paper's measurement protocol: after a
// fast-forward warmup, IPC is recorded for exactly the measured
// instruction budget, while the core may keep running beyond it to
// preserve multi-core interference (Section 6.4).
package cpu

import (
	"fmt"

	"repro/internal/trace"
)

// StallKind classifies where a memory stall came from.
type StallKind int

const (
	// StallL2Hit is time spent on L2 hit latency.
	StallL2Hit StallKind = iota
	// StallRefresh is time spent waiting for eDRAM refresh bursts.
	StallRefresh
	// StallMemory is main-memory latency plus queue delay.
	StallMemory
	numStallKinds
)

// String names the stall kind.
func (k StallKind) String() string {
	switch k {
	case StallL2Hit:
		return "l2-hit"
	case StallRefresh:
		return "refresh"
	case StallMemory:
		return "memory"
	default:
		return fmt.Sprintf("stall(%d)", int(k))
	}
}

// Core is one simulated core executing a workload source.
type Core struct {
	id  int
	src trace.Source
	// gen is src when it is the built-in generator: NextRef calls it
	// directly instead of through the interface (one dispatch per
	// reference is measurable at simulation rates).
	gen *trace.Generator
	// addrOffset relocates every reference into the core's own
	// address space.
	addrOffset uint64

	clock        uint64
	instructions uint64
	stalls       [numStallKinds]uint64

	// Measurement window state (Section 6.4 protocol).
	measureBudget uint64
	measureStart  struct {
		clock, instructions uint64
	}
	measureEnd struct {
		clock, instructions uint64
		done                bool
	}
}

// New builds a core over a reference source (a synthetic generator,
// a trace replayer, or any user-supplied Source).
func New(id int, src trace.Source) *Core { return NewRelocated(id, src, 0) }

// NewRelocated is New with every reference's address shifted by
// addrOffset, placing the workload in the core's own address space.
func NewRelocated(id int, src trace.Source, addrOffset uint64) *Core {
	gen, _ := src.(*trace.Generator)
	return &Core{id: id, src: src, gen: gen, addrOffset: addrOffset}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Clock returns the core's current cycle.
func (c *Core) Clock() uint64 { return c.clock }

// Instructions returns the instructions retired so far.
func (c *Core) Instructions() uint64 { return c.instructions }

// NextRef pulls the next memory reference from the benchmark,
// relocated by the core's address offset, and retires the
// instructions leading up to and including it (Gap non-memory
// instructions plus the memory operation itself, at one cycle each).
func (c *Core) NextRef() trace.Ref {
	var r trace.Ref
	if c.gen != nil {
		r = c.gen.Next()
	} else {
		r = c.src.Next()
	}
	r.Addr += c.addrOffset
	c.retire(uint64(r.Gap) + 1)
	return r
}

// retire advances instructions and the clock at base CPI 1, updating
// the measurement window when its budget is crossed.
func (c *Core) retire(n uint64) {
	c.instructions += n
	c.clock += n
	c.checkMeasureEnd()
}

// Stall adds memory-stall cycles of the given kind.
func (c *Core) Stall(cycles uint64, kind StallKind) {
	if cycles == 0 {
		return
	}
	c.clock += cycles
	c.stalls[kind] += cycles
}

// StallCycles returns the accumulated stall cycles of one kind.
func (c *Core) StallCycles(kind StallKind) uint64 { return c.stalls[kind] }

// BeginMeasurement opens the measurement window: IPC will be computed
// over the next budget instructions. Call it after warmup.
func (c *Core) BeginMeasurement(budget uint64) {
	if budget == 0 {
		panic("cpu: zero measurement budget")
	}
	c.measureBudget = budget
	c.measureStart.clock = c.clock
	c.measureStart.instructions = c.instructions
	c.measureEnd.done = false
}

// checkMeasureEnd snapshots the window end when the budget is
// reached. The core may continue past it (multi-core interference).
func (c *Core) checkMeasureEnd() {
	if c.measureEnd.done || c.measureBudget == 0 {
		return
	}
	if c.instructions-c.measureStart.instructions >= c.measureBudget {
		c.measureEnd.clock = c.clock
		c.measureEnd.instructions = c.instructions
		c.measureEnd.done = true
	}
}

// MeasurementDone reports whether the measured budget has been
// retired.
func (c *Core) MeasurementDone() bool { return c.measureEnd.done }

// MeasuredInstructions returns the instructions retired inside the
// measurement window (0 if the window is still open).
func (c *Core) MeasuredInstructions() uint64 {
	if !c.measureEnd.done {
		return c.instructions - c.measureStart.instructions
	}
	return c.measureEnd.instructions - c.measureStart.instructions
}

// MeasuredCycles returns the cycles elapsed in the measurement
// window; for a still-open window, cycles so far.
func (c *Core) MeasuredCycles() uint64 {
	if !c.measureEnd.done {
		return c.clock - c.measureStart.clock
	}
	return c.measureEnd.clock - c.measureStart.clock
}

// IPC returns instructions per cycle over the measurement window
// (per the paper, recorded only for the first budget instructions
// even if the core continues running).
func (c *Core) IPC() float64 {
	cyc := c.MeasuredCycles()
	if cyc == 0 {
		return 0
	}
	return float64(c.MeasuredInstructions()) / float64(cyc)
}
