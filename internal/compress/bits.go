package compress

import "encoding/binary"

// bitAcc is every bit-packing codec's emitter (FPC, SFPC, C-Pack, SC²,
// FVC): fields accumulate in a 64-bit register and spill into a fixed
// worst-case buffer — no appends, no per-byte bounds growth, nothing on
// the heap — and the finished payload reaches the caller's dst in one
// append. The layout is MSB-first with a zero-padded final partial
// byte, identical to the bit-at-a-time bitWriter the tests keep as its
// oracle. Callers must keep individual fields ≤ 56 bits so the
// accumulator (at most 7 carried bits) never overflows, and a payload
// within BlockSize+8 bytes; every codec emits ≤ 35-bit fields.
type bitAcc struct {
	acc   uint64
	nacc  int // meaningful low bits of acc (< 8 after each emit)
	total int // total bits emitted
	n     int // whole bytes spilled into buf
	// buf holds the payload's BlockSize+8 bytes plus 8 bytes of slack:
	// every spill is one 8-byte store at buf[n:], even at the end.
	buf [BlockSize + 16]byte
}

// emit appends the low nb bits of v, MSB first. The carried bits and v
// are stored as one big-endian word; the whole bytes among them stay
// and the cursor moves past them, the rest is carried.
func (a *bitAcc) emit(v uint64, nb int) {
	if nb < 64 {
		v &= 1<<uint(nb) - 1
	}
	a.acc = a.acc<<uint(nb) | v
	a.nacc += nb
	a.total += nb
	binary.BigEndian.PutUint64(a.buf[a.n:], a.acc<<uint(64-a.nacc))
	a.n += a.nacc >> 3
	a.nacc &= 7
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

// peek returns the next 64-pos%8 bits from the cursor on — at least 57
// — MSB-aligned in one 64-bit window, with zeros past the buffer's end
// and in the low pos%8 bits. It loads the 8 bytes at the cursor's
// byte, or near the end the buffer's last 8 shifted into place.
func (r *bitReader) peek() uint64 {
	i := r.pos >> 3
	var w uint64
	switch n := len(r.buf); {
	case i+8 <= n:
		w = binary.BigEndian.Uint64(r.buf[i:])
	case n >= 8:
		w = binary.BigEndian.Uint64(r.buf[n-8:]) << uint(8*(i+8-n))
	default:
		for k := i; k < i+8; k++ {
			w <<= 8
			if k < n {
				w |= uint64(r.buf[k])
			}
		}
	}
	return w << uint(r.pos&7)
}

// consume moves the cursor past n bits, or reports false and stays put
// when fewer than n are left. A decoder reads a word's fields from one
// peek, then consumes their total length.
func (r *bitReader) consume(n int) bool {
	if n > r.remaining() {
		return false
	}
	r.pos += n
	return true
}

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
