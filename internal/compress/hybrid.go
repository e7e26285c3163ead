package compress

import (
	"fmt"
	"strings"
	"sync"
)

// Hybrid runs several compressor units in parallel and keeps the smallest
// encoding — the generalization of Fig. 4's "multiple compression units"
// plus "compressor selection logic" to heterogeneous schemes. The
// selected unit's index is recorded in a small per-block tag so the
// decompressor can dispatch.
//
// Latency is the worst unit's latency (the units run in parallel; the
// selection mux adds nothing at cycle granularity).
type Hybrid struct {
	units []Algorithm
	name  string
}

// NewHybrid combines the given units. It panics on an empty list or on
// nested hybrids (caller bug).
func NewHybrid(units ...Algorithm) *Hybrid {
	if len(units) == 0 {
		panic("compress: hybrid needs at least one unit")
	}
	names := make([]string, len(units))
	for i, u := range units {
		if _, ok := u.(*Hybrid); ok {
			panic("compress: nested hybrid")
		}
		names[i] = u.Name()
	}
	return &Hybrid{units: units, name: "hybrid(" + strings.Join(names, "+") + ")"}
}

// Name implements Algorithm.
func (h *Hybrid) Name() string { return h.name }

// CompLatency implements Algorithm: the slowest parallel unit.
func (h *Hybrid) CompLatency() int {
	m := 0
	for _, u := range h.units {
		if u.CompLatency() > m {
			m = u.CompLatency()
		}
	}
	return m
}

// DecompLatency implements Algorithm: dispatch costs nothing beyond the
// selected unit, but the engine must be provisioned for the slowest.
func (h *Hybrid) DecompLatency() int {
	m := 0
	for _, u := range h.units {
		if u.DecompLatency() > m {
			m = u.DecompLatency()
		}
	}
	return m
}

// hybridTagBits is the per-block unit-select tag.
const hybridTagBits = 3

// hybridScratch is one AppendCompress call's working memory: the
// shared probe and two payload buffers, one holding the best encoding
// so far and one for the unit being tried. The units are called through
// interfaces, so escape analysis would move stack scratch to the heap on
// every call; a pool keeps the call allocation-free and Hybrid safe for
// concurrent use.
type hybridScratch struct {
	probe BlockProbe
	enc   [2][BlockSize]byte
}

var hybridPool = sync.Pool{New: func() any { return new(hybridScratch) }}

// AppendCompress implements Algorithm: the fused compress-probe. One
// shared scan (Probe) feeds every probe-aware unit, which answers
// "cannot win" or its exact compressed size without encoding anything;
// only units without a probe path run their full encoder, into
// scratch. The winner — selected by the same strictly-smallest-size,
// earliest-unit-wins-ties rule as the old run-everything loop, which
// FuzzKernelEquivalence pins — is encoded once from the precomputed
// facts, and its tag and payload are appended to dst together.
func (h *Hybrid) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	sc := hybridPool.Get().(*hybridScratch)
	defer hybridPool.Put(sc)
	ProbeInto(&sc.probe, block)
	best, bestBits, fromProbe := -1, 0, false
	trial := 0 // sc.enc slot for the next non-probe unit
	var bestC Compressed
	for i, u := range h.units {
		if pc, ok := u.(ProbeCompressor); ok {
			bits, feasible := pc.ProbeSizeBits(&sc.probe)
			if feasible && (best < 0 || bits < bestBits) {
				best, bestBits, fromProbe = i, bits, true
			}
			continue
		}
		c := u.AppendCompress(sc.enc[trial][:0], block)
		if !c.Stored && (best < 0 || c.SizeBits < bestBits) {
			best, bestBits, fromProbe, bestC = i, c.SizeBits, false, c
			trial ^= 1 // the winner keeps its slot
		}
	}
	if best < 0 || bestBits+hybridTagBits >= 8*BlockSize {
		return appendStored(h.name, dst, block)
	}
	if fromProbe {
		bestC = h.units[best].(ProbeCompressor).AppendFromProbe(sc.enc[trial][:0], block, &sc.probe)
	}
	dst, out := grow(dst, 1+len(bestC.Payload))
	out[0] = byte(best)
	copy(out[1:], bestC.Payload)
	return Compressed{Alg: h.name, SizeBits: bestC.SizeBits + hybridTagBits, Payload: dst}
}

// Compress implements Algorithm.
func (h *Hybrid) Compress(block []byte) Compressed { return h.AppendCompress(nil, block) }

// Decompress implements Algorithm.
func (h *Hybrid) Decompress(c Compressed) ([]byte, error) {
	out := new([BlockSize]byte)
	return fresh(out, h.DecompressInto(out, c))
}

// DecompressInto implements Algorithm.
func (h *Hybrid) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	if len(c.Payload) < 1 {
		return ErrCorrupt
	}
	idx := int(c.Payload[0])
	if idx >= len(h.units) {
		return fmt.Errorf("compress: hybrid tag %d out of range: %w", idx, ErrCorrupt)
	}
	inner := Compressed{
		Alg:      h.units[idx].Name(),
		SizeBits: c.SizeBits - hybridTagBits,
		Payload:  c.Payload[1:],
	}
	return h.units[idx].DecompressInto(out, inner)
}
