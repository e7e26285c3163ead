package compress

import (
	"encoding/binary"
	"math/bits"
)

// Delta implements the paper's delta-based compressor (Section 3.2,
// Fig. 4): a 64-byte block is viewed as eight 8-byte flits; flit 0 is kept
// as the explicit base BF0, a zero flit is the second, implicit base, and
// each remaining flit is stored as a signed delta against whichever base
// yields a representable difference. Multiple compressor units try delta
// widths of 1, 2 and 4 bytes and the selection logic keeps the smallest
// result ("compressor selection logic", Fig. 4a).
//
// Latencies follow Table 2 of the paper: 1-cycle compression, 3-cycle
// decompression.
type Delta struct{}

// NewDelta returns the paper's delta compressor.
func NewDelta() *Delta { return &Delta{} }

// Name implements Algorithm.
func (*Delta) Name() string { return "delta" }

// CompLatency implements Algorithm (Table 2: 1 cycle).
func (*Delta) CompLatency() int { return 1 }

// DecompLatency implements Algorithm (Table 2: 3 cycles).
func (*Delta) DecompLatency() int { return 3 }

// deltaFlits is the number of delta-encoded flits (all but the base).
const deltaFlits = BlockSize/FlitBytes - 1

// deltaHeaderBits is the per-block metadata: a 2-bit delta-width code plus
// a 7-bit base-select bitmap (one bit per non-base flit).
const deltaHeaderBits = 2 + deltaFlits

// deltaSizeBits returns the encoded size for delta width d bytes.
func deltaSizeBits(d int) int { return deltaHeaderBits + 8*FlitBytes + deltaFlits*8*d }

// deltaPlan captures one feasible encoding: the delta width and which base
// each non-base flit uses (bit i set = flit i+1 uses the zero base).
type deltaPlan struct {
	width   int
	zeroSel uint8
	deltas  [deltaFlits]int64
}

// planDelta tries to encode flits with width-d deltas. ok is false when
// some flit fits neither base.
func planDelta(flits *[BlockSize / FlitBytes]uint64, d int) (deltaPlan, bool) {
	p := deltaPlan{width: d}
	bits := 8 * d
	for i := 0; i < deltaFlits; i++ {
		dBase := int64(flits[i+1] - flits[0]) // two's-complement wraparound is intended
		dZero := int64(flits[i+1])
		switch {
		case fitsSigned(dZero, bits):
			// Prefer the zero base on ties: an all-zero block then encodes
			// with an all-zero delta vector regardless of BF0.
			p.zeroSel |= 1 << uint(i)
			p.deltas[i] = dZero
		case fitsSigned(dBase, bits):
			p.deltas[i] = dBase
		default:
			return deltaPlan{}, false
		}
	}
	return p, true
}

// halfDeltaElems is the element count at 4-byte ("zero half-flit", §3.2)
// granularity.
const halfDeltaElems = BlockSize / 4

// halfDeltaSizeBits returns the encoded size of the 4-byte-granularity
// unit with width-d deltas: 2-bit unit/width code, a bit of base select
// per element, a 4-byte base, and 15 deltas.
func halfDeltaSizeBits(d int) int {
	return 2 + (halfDeltaElems - 1) + 8*4 + (halfDeltaElems-1)*8*d
}

// minDeltaWidth returns the smallest width in {1,2,4} (capped at max)
// whose signed range holds x, or 0 when none does. x fits k bits iff its
// sign-folded magnitude has fewer than k significant bits.
func minDeltaWidth(x int64, max int) int {
	l := bits.Len64(uint64(x ^ (x >> 63)))
	switch {
	case l < 8:
		return 1
	case l < 16 && max >= 2:
		return 2
	case l < 32 && max >= 4:
		return 4
	}
	return 0
}

// deltaHalfCap returns the widest half-flit delta width that could
// still beat the 8-byte unit's result (0 = don't try): the half-flit
// unit wins ties only by being strictly smaller, and req8 == 1
// (129 bits) beats even Δ1 half-flit (169 bits).
func deltaHalfCap(req8 int) int {
	switch {
	case req8 == 0 || req8 == 4:
		return 2
	case req8 == 2:
		return 1
	}
	return 0
}

// layoutDelta8 appends the 8-byte-flit encoding at width req8 to dst:
// width, base-select bitmap, base flit, then the deltas (little-endian,
// req8 bytes each). The zero base is preferred on ties so an all-zero
// block encodes with an all-zero delta vector.
func layoutDelta8(dst []byte, flits *[BlockSize / FlitBytes]uint64, wZero *[deltaFlits]uint8, req8 int) []byte {
	dst, out := grow(dst, 2+FlitBytes+deltaFlits*req8)
	binary.LittleEndian.PutUint64(out[2:], flits[0])
	var zeroSel uint8
	if req8 == 1 {
		// The dominant width: one byte per delta, no inner loop.
		for i := 0; i < deltaFlits; i++ {
			v := flits[i+1]
			if wZero[i] == 1 {
				zeroSel |= 1 << uint(i)
			} else {
				v -= flits[0]
			}
			out[2+FlitBytes+i] = byte(v)
		}
	} else {
		pos := 2 + FlitBytes
		for i := 0; i < deltaFlits; i++ {
			var v uint64
			if wZero[i] != 0 && int(wZero[i]) <= req8 {
				zeroSel |= 1 << uint(i)
				v = flits[i+1]
			} else {
				v = flits[i+1] - flits[0]
			}
			for b := 0; b < req8; b++ {
				out[pos+b] = byte(v >> uint(8*b))
			}
			pos += req8
		}
	}
	out[0], out[1] = byte(req8), zeroSel
	return dst
}

// AppendCompress implements Algorithm. The "multiple compressor units" of
// Fig. 4 are tried in parallel — 8-byte flit granularity with Δ ∈
// {1,2,4} and 4-byte half-flit granularity with Δ ∈ {1,2} — and the
// selection logic keeps the smallest encoding. The width scans are the
// kernel's (deltaWidths8/halfDeltaScan, see kernel.go): feasibility is
// monotone in the delta width, so one pass per granularity finds the
// width the unit bank would select and only the winning plan is laid
// out.
func (a *Delta) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	flits := words64(block)
	req8, wZero := deltaWidths8(&flits)
	if capHalf := deltaHalfCap(req8); capHalf != 0 {
		var ws [16]uint32
		for i, l := range flits {
			ws[2*i] = uint32(l)
			ws[2*i+1] = uint32(l >> 32)
		}
		hz, hb := halfDeltaScan(&ws)
		if reqHalf, ok := halfDeltaReq(&hz, &hb, capHalf); ok {
			return Compressed{Alg: a.Name(), SizeBits: halfDeltaSizeBits(reqHalf), Payload: layoutHalfDelta(dst, &ws, &hz, reqHalf)}
		}
	}
	if req8 == 0 {
		return appendStored(a.Name(), dst, block)
	}
	return Compressed{Alg: a.Name(), SizeBits: deltaSizeBits(req8), Payload: layoutDelta8(dst, &flits, &wZero, req8)}
}

// DecompressInto implements Algorithm.
func (a *Delta) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	if len(c.Payload) >= 1 && c.Payload[0]&0xF0 == 0xF0 {
		return decodeHalfDelta(out, c.Payload)
	}
	if len(c.Payload) < 2+FlitBytes {
		return ErrCorrupt
	}
	width := int(c.Payload[0])
	if width != 1 && width != 2 && width != 4 {
		return ErrCorrupt
	}
	if len(c.Payload) != 2+FlitBytes+deltaFlits*width {
		return ErrCorrupt
	}
	zeroSel := c.Payload[1]
	base := binary.LittleEndian.Uint64(c.Payload[2:])
	binary.LittleEndian.PutUint64(out[:], base)
	pos := 2 + FlitBytes
	for i := 0; i < deltaFlits; i++ {
		var raw uint64
		for b := 0; b < width; b++ {
			raw |= uint64(c.Payload[pos+b]) << uint(8*b)
		}
		pos += width
		d := signExtend(raw, 8*width)
		v := uint64(d)
		if zeroSel&(1<<uint(i)) == 0 {
			v += base
		}
		binary.LittleEndian.PutUint64(out[(i+1)*FlitBytes:], v)
	}
	return nil
}

// decodeHalfDelta reverses layoutHalfDelta into out.
func decodeHalfDelta(out *[BlockSize]byte, p []byte) error {
	width := int(p[0] & 0x0F)
	if width != 1 && width != 2 {
		return ErrCorrupt
	}
	if len(p) != 7+(halfDeltaElems-1)*width {
		return ErrCorrupt
	}
	zeroSel := uint16(p[1]) | uint16(p[2])<<8
	base := uint32(p[3]) | uint32(p[4])<<8 | uint32(p[5])<<16 | uint32(p[6])<<24
	out[0], out[1], out[2], out[3] = p[3], p[4], p[5], p[6]
	pos := 7
	for i := 0; i < halfDeltaElems-1; i++ {
		var raw uint32
		for b := 0; b < width; b++ {
			raw |= uint32(p[pos+b]) << uint(8*b)
		}
		pos += width
		d := uint32(signExtend(uint64(raw), 8*width))
		v := d
		if zeroSel&(1<<uint(i)) == 0 {
			v += base
		}
		putWord(out, i+1, v)
	}
	return nil
}

// IncrementalDelta is the "separate compression" engine of Section 3.3A:
// under wormhole flow control a packet's flits may arrive at a router in
// fragments, and DISCO compresses each fragment as it arrives, keeping the
// two bases (BF0 and the zero flit) in base registers between fragments.
// Because future flits are unknown, the hardware commits to the 1-byte
// delta width up front; a flit that does not fit either base aborts the
// whole compression (the packet travels uncompressed).
//
// The paper notes that naive separate compression leaves "zero bubbles" in
// buffer entries; DISCO's merge logic concatenates fragment outputs
// bubble-free. MergedSizeBits reports the bubble-free size (identical to
// whole-packet Δ1 compression) while FragmentPaddedBits reports the
// bubble-padded cost a merge-less design would pay.
type IncrementalDelta struct {
	base     uint64
	haveBase bool
	absorbed int   // flits absorbed so far (including the base)
	fragBits []int // raw output bits per fragment
	failed   bool
}

// NewIncrementalDelta returns an engine ready for the first fragment.
// Its fragment list is sized for the worst case, one fragment per flit.
func NewIncrementalDelta() *IncrementalDelta {
	return &IncrementalDelta{fragBits: make([]int, 0, BlockSize/FlitBytes)}
}

// Reset returns the engine to its initial state, retaining the fragment
// bookkeeping's backing array — a recycled engine job absorbs its first
// fragments without reallocating.
func (s *IncrementalDelta) Reset() {
	s.base = 0
	s.haveBase = false
	s.absorbed = 0
	s.fragBits = s.fragBits[:0]
	s.failed = false
}

// Absorb feeds the next fragment of 8-byte flit payloads, in packet order.
// It returns false (and latches failure) if any flit fits neither base at
// the committed 1-byte width.
func (s *IncrementalDelta) Absorb(flits []uint64) bool {
	if s.failed {
		return false
	}
	bits := 0
	for _, f := range flits {
		if s.absorbed >= BlockSize/FlitBytes {
			panic("compress: IncrementalDelta absorbed more than one block")
		}
		if !s.haveBase {
			s.base, s.haveBase = f, true
			s.absorbed++
			bits += 8 * FlitBytes // base stored raw
			continue
		}
		dBase := int64(f - s.base)
		dZero := int64(f)
		if !fitsSigned(dZero, 8) && !fitsSigned(dBase, 8) {
			s.failed = true
			return false
		}
		s.absorbed++
		bits += 8 // one 1-byte delta
	}
	if bits > 0 {
		s.fragBits = append(s.fragBits, bits)
	}
	return true
}

// Failed reports whether compression was aborted.
func (s *IncrementalDelta) Failed() bool { return s.failed }

// Done reports whether a full block has been absorbed successfully.
func (s *IncrementalDelta) Done() bool {
	return !s.failed && s.absorbed == BlockSize/FlitBytes
}

// Absorbed returns the number of flits absorbed so far.
func (s *IncrementalDelta) Absorbed() int { return s.absorbed }

// MergedSizeBits is the bubble-free compressed size after DISCO's fragment
// merging, header included. Only meaningful once Done.
func (s *IncrementalDelta) MergedSizeBits() int {
	if !s.Done() {
		return 8 * BlockSize
	}
	return deltaSizeBits(1)
}

// FragmentPaddedBits is the cost without merge hardware: each fragment's
// output is padded up to whole 8-byte flit entries, leaving zero bubbles.
func (s *IncrementalDelta) FragmentPaddedBits() int {
	total := 0
	for _, b := range s.fragBits {
		flitBits := 8 * FlitBytes
		total += (b + flitBits - 1) / flitBits * flitBits
	}
	return total + deltaHeaderBits
}
