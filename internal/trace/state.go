package trace

import (
	"sort"

	"repro/internal/ckpt"
	"repro/internal/xrand"
)

// AppendState serialises the generator's mutable state. The profile
// itself is not serialised: a checkpoint is only restored into a
// generator built from the same (profile, seed) pair, which the
// caller guarantees by keying checkpoints on the full configuration.
func (g *Generator) AppendState(w *ckpt.Writer) {
	w.Section("TGEN")
	w.U64(g.rng.State())
	w.Int(g.zipfKey)
	// The per-size Zipf substreams: sorted for deterministic bytes.
	keys := make([]int, 0, len(g.zipfCache))
	for k := range g.zipfCache {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		w.U64(g.zipfCache[k].RNGState())
	}
	w.U64(g.streamPos)
	w.U64Slice(g.scanPos)
	w.Int(g.scanNext)
	w.Int(g.burstLeft)
	w.U64(g.burstLine)
	w.U64(g.burstOff)
	w.U64(g.refs)
	w.Int(g.phaseIdx)
}

// RestoreState rebuilds the generator's mutable state from a stream
// written by AppendState. The receiver must have been constructed
// with NewGenerator using the same profile and seed. The Zipf
// sampler cache is rebuilt from the serialised per-entry substream
// states without drawing from the main stream, so a restored
// generator continues the reference sequence exactly where the
// checkpointed one left off.
func (g *Generator) RestoreState(r *ckpt.Reader) error {
	r.Section("TGEN")
	rngState := r.U64()
	zipfKey := r.Int()
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if n < 0 || n > 1<<20 {
		r.Failf("trace: unreasonable zipf cache size %d", n)
		return r.Err()
	}
	cache := make(map[int]*xrand.Zipf, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		st := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if !g.hotSize(k) {
			r.Failf("trace: zipf cache key %d is not one of the profile's hot sizes", k)
			return r.Err()
		}
		lines := k * 1024 / lineBytes
		if lines < 1 {
			lines = 1
		}
		cache[k] = xrand.NewZipf(xrand.New(st), lines, g.p.ZipfS)
	}
	z, ok := cache[zipfKey]
	if !ok {
		r.Failf("trace: active zipf key %d missing from cache", zipfKey)
		return r.Err()
	}
	streamPos := r.U64()
	scanPos := make([]uint64, len(g.scanPos))
	r.U64SliceInto(scanPos)
	scanNext := r.Int()
	burstLeft := r.Int()
	burstLine := r.U64()
	burstOff := r.U64()
	refs := r.U64()
	phaseIdx := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if len(scanPos) > 0 && (scanNext < 0 || scanNext >= len(scanPos)) {
		r.Failf("trace: scanNext %d out of range", scanNext)
		return r.Err()
	}
	// Next advances positions by compare-and-reset, which is only
	// exact for in-range, stride-aligned state: refuse anything else
	// rather than generate addresses outside the pattern's region.
	if streamPos >= g.streamBytes || streamPos%strideBytes != 0 {
		r.Failf("trace: stream position %d outside the %d-byte region or unaligned", streamPos, g.streamBytes)
		return r.Err()
	}
	for i, pos := range scanPos {
		if pos >= g.scanSize[i] || pos%strideBytes != 0 {
			r.Failf("trace: scan %d position %d outside the %d-byte loop or unaligned", i, pos, g.scanSize[i])
			return r.Err()
		}
	}
	if burstOff >= lineBytes || burstOff%strideBytes != 0 {
		r.Failf("trace: burst offset %d outside the line or unaligned", burstOff)
		return r.Err()
	}
	if burstLine%lineBytes != 0 || burstLine-hotBase >= g.maxHotBytes() {
		r.Failf("trace: burst line %#x outside the hot region", burstLine)
		return r.Err()
	}
	if burstLeft < 0 {
		r.Failf("trace: negative burst length %d", burstLeft)
		return r.Err()
	}
	phases := max(len(g.p.PhaseHotKB), 1) // single-phase profiles stay in phase 0
	if phaseIdx < 0 || phaseIdx >= phases {
		r.Failf("trace: phase index %d out of range", phaseIdx)
		return r.Err()
	}
	g.rng.SetState(rngState)
	g.zipfCache = cache
	g.zipf = z
	g.zipfKey = zipfKey
	g.streamPos = streamPos
	copy(g.scanPos, scanPos)
	g.scanNext = scanNext
	g.burstLeft = burstLeft
	g.burstLine = burstLine
	g.burstOff = burstOff
	g.refs = refs
	g.phaseIdx = phaseIdx
	g.nextPhase = g.phaseDue()
	return nil
}

// hotSize reports whether kb is a hot working-set size of the profile
// (HotKB or one of the phase sizes): the only keys zipfFor creates.
func (g *Generator) hotSize(kb int) bool {
	if kb == g.p.HotKB {
		return true
	}
	for _, k := range g.p.PhaseHotKB {
		if k == kb {
			return true
		}
	}
	return false
}

// maxHotBytes is the extent of the largest hot region the profile
// draws lines from; a burst may outlive the phase that chose its line.
func (g *Generator) maxHotBytes() uint64 {
	kb := g.p.HotKB
	for _, k := range g.p.PhaseHotKB {
		kb = max(kb, k)
	}
	return uint64(kb) * 1024
}
