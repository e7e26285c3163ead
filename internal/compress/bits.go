package compress

// bitAcc is every bit-packing codec's emitter (FPC, SFPC, C-Pack, SC²,
// FVC): fields accumulate in a 64-bit register and spill whole bytes
// into a fixed worst-case buffer — no appends, no per-byte bounds
// growth, nothing on the heap — and the finished payload reaches the
// caller's dst in one append. The layout is MSB-first with a
// zero-padded final partial byte, identical to the bit-at-a-time
// bitWriter the tests keep as its oracle. Callers must keep individual
// fields ≤ 56 bits so the accumulator (at most 7 carried bits) never
// overflows; every codec emits ≤ 35-bit fields.
type bitAcc struct {
	acc   uint64
	nacc  int // meaningful low bits of acc (< 8 after each emit)
	total int // total bits emitted
	n     int // whole bytes spilled into buf
	buf   [BlockSize + 8]byte
}

// emit appends the low nb bits of v, MSB first.
func (a *bitAcc) emit(v uint64, nb int) {
	if nb < 64 {
		v &= 1<<uint(nb) - 1
	}
	a.acc = a.acc<<uint(nb) | v
	a.nacc += nb
	a.total += nb
	for a.nacc >= 8 {
		a.nacc -= 8
		a.buf[a.n] = byte(a.acc >> uint(a.nacc))
		a.n++
	}
}

// bits returns the number of bits emitted so far.
func (a *bitAcc) bits() int { return a.total }

// appendTo flushes the partial byte and appends the payload to dst,
// exactly ceil(bits/8) bytes, allocating at most once.
func (a *bitAcc) appendTo(dst []byte) []byte {
	n := a.n
	if a.nacc > 0 {
		a.buf[n] = byte(a.acc&(1<<uint(a.nacc)-1)) << uint(8-a.nacc)
		n++
	}
	dst, out := grow(dst, n)
	copy(out, a.buf[:n])
	return dst
}

// bitReader reads MSB-first bit fields written by bitAcc.
type bitReader struct {
	buf []byte
	pos int // bit cursor
}

// readBits reads n bits MSB-first. ok is false on underrun.
func (r *bitReader) readBits(n int) (v uint64, ok bool) {
	if n < 0 || n > 64 || r.pos+n > 8*len(r.buf) {
		return 0, false
	}
	// Mirror of writeBits: drain the current partial byte, then whole
	// bytes, then the high bits of a final partial byte.
	if rem := r.pos % 8; rem != 0 && n > 0 {
		avail := 8 - rem
		take := n
		if take > avail {
			take = avail
		}
		b := r.buf[r.pos/8]
		v = uint64(b>>uint(avail-take)) & (1<<uint(take) - 1)
		r.pos += take
		n -= take
	}
	for n >= 8 {
		v = v<<8 | uint64(r.buf[r.pos/8])
		r.pos += 8
		n -= 8
	}
	if n > 0 {
		v = v<<uint(n) | uint64(r.buf[r.pos/8]>>uint(8-n))
		r.pos += n
	}
	return v, true
}

// readBit reads a single bit.
func (r *bitReader) readBit() (uint64, bool) { return r.readBits(1) }

// remaining reports how many unread bits are left.
func (r *bitReader) remaining() int { return 8*len(r.buf) - r.pos }

// signExtend interprets the low n bits of v as a two's-complement signed
// value and widens it to 64 bits.
func signExtend(v uint64, n int) int64 {
	shift := uint(64 - n)
	return int64(v<<shift) >> shift
}

// fitsSigned reports whether x is representable as an n-bit two's
// complement value.
func fitsSigned(x int64, n int) bool {
	if n >= 64 {
		return true
	}
	lo := -(int64(1) << uint(n-1))
	hi := int64(1)<<uint(n-1) - 1
	return x >= lo && x <= hi
}
