// Package noc is a cycle-accurate simulator of the paper's on-chip
// network (Table 2): a k×k mesh of 3-stage wormhole routers with XY
// routing, per-port virtual channels, credit-style backpressure and
// single-flit-per-port-per-cycle crossbars, optionally extended with the
// DISCO in-router de/compression machinery of Sections 3.1–3.3.
//
// The simulator models flits at packet granularity: each virtual channel
// holds at most one packet at a time (atomic VC allocation) and tracks how
// many of its flits have arrived, are buffered, and have been forwarded.
// This reproduces wormhole timing — serialization, head-of-line stalls,
// packets spread across multiple routers — without per-flit objects.
package noc

import (
	"encoding/binary"
	"fmt"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/fault"
)

// Class is the traffic class of a packet, mirroring the three packet
// types of a cache-coherent CMP (Section 3.3C).
type Class int

// Packet classes.
const (
	// ClassRequest carries a command to a bank/directory/MC (single flit).
	ClassRequest Class = iota
	// ClassResponse carries a cache-block payload.
	ClassResponse
	// ClassCoherence carries invalidations/acks (single flit).
	ClassCoherence
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassResponse:
		return "response"
	case ClassCoherence:
		return "coherence"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Packet is one NoC packet. Data packets carry their functional payload so
// in-network compression is real, not statistical.
type Packet struct {
	ID    uint64
	Src   int
	Dst   int
	Class Class

	// Compressible marks a data payload eligible for DISCO treatment.
	Compressible bool
	// Compressed is the packet's current wire form.
	Compressed bool
	// CompressionFailed latches an engine abort on incompressible content
	// so later routers do not retry.
	CompressionFailed bool
	// WantCompressedAtDst is the form the destination consumes: true for
	// NUCA banks (compressed LLC), false for cores and memory controllers.
	WantCompressedAtDst bool

	// Block is the uncompressed payload (BlockSize bytes) for data
	// packets; nil for control packets. It is retained while compressed so
	// the simulator can re-derive flit values, and it is what the packet
	// carries again once decompressed.
	Block []byte
	// Comp is the compressed encoding; valid only while Compressed. Its
	// Payload is either the caller's (an encoding the simulator caches)
	// or payload, the packet's own buffer, for encodings made in flight.
	Comp compress.Compressed
	// PayloadBytes is the current wire payload size.
	PayloadBytes int
	// FlitCount is head flit + payload flits in the current form.
	FlitCount int

	// Timing and bookkeeping.
	InjectCycle uint64
	EjectCycle  uint64
	Hops        int
	Conversions int    // in-network de/compressions applied to this packet
	Queueing    uint64 // cycles spent buffered while unable to move
	// Life records lifecycle stamps and engine-overlap accounting; see
	// Lifetime and (*Packet).Breakdown.
	Life Lifetime

	// Meta lets the protocol layer attach a transaction reference.
	Meta any

	// pooled marks a packet born from the network's arena (TakePacket):
	// eject, or ReleasePacket from an OnEject owner, reclaims it.
	// Packets built by the exported constructors are never reclaimed.
	pooled bool
	// ownsBlock marks a Block the arena lent, which recycling may pool
	// with the packet. Packets carrying a caller's block — the
	// simulator's content cache — never set it, so the arena never hands
	// that memory to another packet.
	ownsBlock bool
	// payload holds the encodings made in flight (engine results,
	// generator injections), so they live exactly as long as the packet.
	payload [compress.BlockSize]byte
}

// flitsFor returns head + payload flits for a payload of n bytes.
func flitsFor(n int) int {
	if n == 0 {
		return 1
	}
	return 1 + (n+compress.FlitBytes-1)/compress.FlitBytes
}

// maxPacketFlits is the largest packet the simulator builds: a head flit
// plus an uncompressed cache block.
const maxPacketFlits = 1 + compress.BlockSize/compress.FlitBytes

// InitControl fills p as a single-flit request/coherence packet: an
// empty payload riding a lone head flit. It returns p.
func (p *Packet) InitControl(id uint64, src, dst int, class Class) *Packet {
	p.ID, p.Src, p.Dst, p.Class = id, src, dst, class
	p.PayloadBytes = 0
	p.FlitCount = flitsFor(0)
	return p
}

// InitData fills p as an uncompressed response packet carrying block,
// which p does not own (see ownsBlock). It returns p.
func (p *Packet) InitData(id uint64, src, dst int, block []byte, wantCompressed bool) *Packet {
	if len(block) != compress.BlockSize {
		panic(fmt.Sprintf("noc: data packet payload must be %d bytes", compress.BlockSize))
	}
	p.ID, p.Src, p.Dst, p.Class = id, src, dst, ClassResponse
	p.Compressible = true
	p.WantCompressedAtDst = wantCompressed
	p.Block = block
	p.PayloadBytes = compress.BlockSize
	p.FlitCount = flitsFor(compress.BlockSize)
	return p
}

// NewControlPacket builds a single-flit request/coherence packet.
func NewControlPacket(id uint64, src, dst int, class Class) *Packet {
	return new(Packet).InitControl(id, src, dst, class)
}

// NewDataPacket builds an uncompressed response packet carrying block.
func NewDataPacket(id uint64, src, dst int, block []byte, wantCompressed bool) *Packet {
	return new(Packet).InitData(id, src, dst, block, wantCompressed)
}

// NewCompressedDataPacket builds a response packet already in compressed
// form (e.g. read from a compressed LLC bank).
func NewCompressedDataPacket(id uint64, src, dst int, block []byte, comp compress.Compressed, wantCompressed bool) *Packet {
	p := NewDataPacket(id, src, dst, block, wantCompressed)
	p.ApplyCompression(comp)
	return p
}

// ApplyCompression switches the packet to compressed form.
func (p *Packet) ApplyCompression(c compress.Compressed) {
	p.Compressed = true
	p.Comp = c
	p.PayloadBytes = c.SizeBytes()
	p.FlitCount = flitsFor(p.PayloadBytes)
}

// ownCompression is ApplyCompression with c's payload copied into the
// packet's own buffer: c may live in engine scratch.
func (p *Packet) ownCompression(c compress.Compressed) {
	p.ApplyCompression(c)
	p.Comp.Payload = p.payload[:copy(p.payload[:], c.Payload)]
}

// ApplyDecompression switches the packet back to raw form: its retained
// Block.
func (p *Packet) ApplyDecompression() {
	p.Compressed = false
	p.Comp = compress.Compressed{}
	p.PayloadBytes = compress.BlockSize
	p.FlitCount = flitsFor(compress.BlockSize)
}

// corruptPayloadBit flips one bit of the compressed payload,
// copy-on-write: the original encoding slice is shared with the endpoint
// compression caches and with other packets carrying the same block, so
// it must never be mutated in place. The flit count is unchanged — a
// flipped bit corrupts content, not length.
func (p *Packet) corruptPayloadBit(bit int) {
	p.Comp.Payload = fault.FlipBit(p.Comp.Payload, bit)
}

// PayloadFlits returns the packet's current payload flit count.
func (p *Packet) PayloadFlits() int { return p.FlitCount - 1 }

// payloadFlitValues returns the packet's payload as 8-byte flit values in
// its UNCOMPRESSED form — these are what a DISCO compression engine
// absorbs. Only valid for data packets.
func (p *Packet) payloadFlitValues(from, n int) []uint64 {
	return p.payloadFlitValuesInto(make([]uint64, 0, n), from, n)
}

// payloadFlitValuesInto is payloadFlitValues appending into a caller
// scratch buffer: the cycle loop feeds the engine from a per-router
// array, so no per-absorb slice is allocated. The engine copies what it
// keeps (IncrementalDelta reads flit values; streaming mode appends
// bytes), so the scratch may be reused immediately.
func (p *Packet) payloadFlitValuesInto(buf []uint64, from, n int) []uint64 {
	for i := from; i < from+n; i++ {
		buf = append(buf, binary.LittleEndian.Uint64(p.Block[i*compress.FlitBytes:]))
	}
	return buf
}

// InWantedForm reports whether the packet's current form matches what its
// destination consumes; a mismatched packet pays a residual conversion at
// ejection.
func (p *Packet) InWantedForm() bool {
	if !p.Compressible {
		return true
	}
	return p.Compressed == p.WantCompressedAtDst
}
