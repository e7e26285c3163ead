// Package compress implements the cache-block compression algorithms
// evaluated by the DISCO paper (DAC 2016): the paper's delta-based scheme
// (Section 3.2, Fig. 4), BΔI, FPC, a simplified FPC (SFPC), C-Pack and a
// Huffman-based statistical compressor standing in for SC². All algorithms
// operate on fixed 64-byte cache blocks and report hardware-style
// compressed sizes plus the per-operation latencies of Table 1.
//
// Every algorithm is a real, round-trippable codec — DecompressInto on what
// AppendCompress produced for b always reproduces b — so the same package
// serves the functional simulator and the compression-ratio experiments.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the cache-line size in bytes used throughout the paper
// (Table 2: 64 B lines).
const BlockSize = 64

// WordSize is the 32-bit word granularity used by FPC/SFPC/C-Pack.
const WordSize = 4

// FlitBytes is the 64-bit flit payload granularity used by the paper's
// delta compressor (Fig. 4: 8-byte base flit, 1-byte deltas).
const FlitBytes = 8

// ErrCorrupt is returned by DecompressInto when the encoded payload cannot be
// decoded back into a block.
var ErrCorrupt = errors.New("compress: corrupt compressed payload")

// Compressed is the result of compressing one cache block. SizeBits is the
// hardware storage cost of the encoding, including per-block metadata
// (pattern headers, base-select bits, ...). When no encoding beats the raw
// block the algorithm returns a stored block: Stored is true and SizeBits
// is exactly 8*BlockSize.
type Compressed struct {
	Alg      string // algorithm name, for diagnostics
	SizeBits int    // encoded size in bits, metadata included
	Stored   bool   // true when the block is kept uncompressed
	Payload  []byte // decoder input (implementation-defined layout)
}

// SizeBytes returns the encoded size rounded up to whole bytes, the
// granularity at which caches allocate segments and NIs build flits.
func (c Compressed) SizeBytes() int { return (c.SizeBits + 7) / 8 }

// Ratio returns the compression ratio BlockSize / SizeBytes (≥ 1 is a win).
func (c Compressed) Ratio() float64 { return float64(BlockSize) / float64(c.SizeBytes()) }

// Algorithm is one block compressor. Latencies are in router/cache cycles
// and follow Table 1 of the paper.
//
// Each codec has one encoder, AppendCompress, and one decoder,
// DecompressInto, both writing into caller-owned memory: a caller that
// keeps a payload keeps it in memory it already owns (a packet's payload
// buffer, the simulator's payload arena), and AppendCompress(nil, b) is
// the one-allocation form for a caller that has none.
type Algorithm interface {
	// Name returns the scheme's short name ("delta", "fpc", ...).
	Name() string
	// CompLatency is the pipeline latency of compressing one block.
	CompLatency() int
	// DecompLatency is the pipeline latency of decompressing one block.
	DecompLatency() int
	// AppendCompress encodes a BlockSize-byte block, appending the
	// payload to dst (a stored fallback appends the raw block), and
	// returns the result with Payload set to the extended dst. It
	// allocates only if dst lacks the capacity: BlockSize spare bytes
	// always suffice. It panics if len(block) differs from BlockSize
	// (caller bug, not data-dependent).
	AppendCompress(dst, block []byte) Compressed
	// DecompressInto decodes a Compressed produced by the same
	// algorithm into dst. On error dst holds unspecified bytes.
	DecompressInto(dst *[BlockSize]byte, c Compressed) error
}

// checkBlock panics unless block is exactly one cache line.
func checkBlock(block []byte) {
	if len(block) != BlockSize {
		panic(fmt.Sprintf("compress: block must be %d bytes, got %d", BlockSize, len(block)))
	}
}

// appendStored builds the fall-back encoding that keeps the block raw,
// appending it to dst.
func appendStored(alg string, dst, block []byte) Compressed {
	dst, out := grow(dst, BlockSize)
	copy(out, block)
	return Compressed{Alg: alg, SizeBits: 8 * BlockSize, Stored: true, Payload: dst}
}

// storedInto decodes a stored block; shared by all algorithms.
func storedInto(dst *[BlockSize]byte, c Compressed) error {
	if len(c.Payload) != BlockSize {
		return ErrCorrupt
	}
	copy(dst[:], c.Payload)
	return nil
}

// grow extends dst by n zeroed bytes, allocating at most once, and
// returns the extended slice plus the new n-byte tail to lay out into.
func grow(dst []byte, n int) (out, tail []byte) {
	out = append(dst, make([]byte, n)...)
	return out, out[len(dst):]
}

// putWord stores the i-th 32-bit word of a block little-endian.
func putWord(dst *[BlockSize]byte, i int, w uint32) {
	binary.LittleEndian.PutUint32(dst[i*WordSize:], w)
}

// words32 splits a block into 16 little-endian 32-bit words.
func words32(block []byte) [BlockSize / WordSize]uint32 {
	var w [BlockSize / WordSize]uint32
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(block[i*WordSize:])
	}
	return w
}

// words64 splits a block into 8 little-endian 64-bit flit payloads.
func words64(block []byte) [BlockSize / FlitBytes]uint64 {
	var w [BlockSize / FlitBytes]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(block[i*FlitBytes:])
	}
	return w
}
