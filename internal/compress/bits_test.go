package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// bitWriter packs MSB-first bit fields into a growing byte slice, one
// field at a time. It is the format oracle for bitAcc and the emitter
// of the scalar reference encoders in reference_test.go.
type bitWriter struct {
	buf  []byte
	nbit int // total bits written
}

// writeBits appends the low n bits of v, MSB first. n must be in [0, 64].
func (w *bitWriter) writeBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic("compress: writeBits width out of range")
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	// Grow to the final byte length up front, then deposit the field in
	// at most three strides: the tail of the current partial byte, whole
	// bytes, and a leading partial byte.
	need := (w.nbit + n + 7) / 8
	for len(w.buf) < need {
		w.buf = append(w.buf, 0)
	}
	if rem := w.nbit % 8; rem != 0 {
		// Fill the free low bits of the current byte.
		free := 8 - rem
		take := n
		if take > free {
			take = free
		}
		w.buf[w.nbit/8] |= byte(v>>uint(n-take)) << uint(free-take)
		w.nbit += take
		n -= take
	}
	for n >= 8 {
		w.buf[w.nbit/8] = byte(v >> uint(n-8))
		w.nbit += 8
		n -= 8
	}
	if n > 0 {
		w.buf[w.nbit/8] = byte(v&(1<<uint(n)-1)) << uint(8-n)
		w.nbit += n
	}
}

// bits returns the number of bits written so far.
func (w *bitWriter) bits() int { return w.nbit }

// bytes returns the backing buffer (last byte possibly partial).
func (w *bitWriter) bytes() []byte { return w.buf }

// refBitReader reads MSB-first fields one bit at a time: the reference
// for the window reader (peek, consume) and the reader of the reference
// decoders in reference_test.go.
type refBitReader struct {
	buf []byte
	pos int
}

// readBits reads n bits; ok is false, and the cursor stays put, on
// underrun.
func (r *refBitReader) readBits(n int) (v uint64, ok bool) {
	if n < 0 || n > 64 || r.pos+n > 8*len(r.buf) {
		return 0, false
	}
	for ; n > 0; n-- {
		v = v<<1 | uint64(r.buf[r.pos>>3]>>uint(7-r.pos&7))&1
		r.pos++
	}
	return v, true
}

// readBits reads an n-bit field MSB-first through peek and consume, as
// the decoders read one word's fields; widths above 56 take two
// windows. ok is false, and the cursor stays put, on underrun.
func (r *bitReader) readBits(n int) (v uint64, ok bool) {
	if n < 0 || n > 64 || n > r.remaining() {
		return 0, false
	}
	if n > 56 {
		hi, _ := r.readBits(n - 32)
		lo, _ := r.readBits(32)
		return hi<<32 | lo, true
	}
	v = r.peek() >> uint(64-n)
	r.consume(n)
	return v, true
}

// refWriteBits is the original bit-at-a-time packer, kept as the format
// oracle for the batched writeBits fast path.
func refWriteBits(buf []byte, nbit int, v uint64, n int) ([]byte, int) {
	for i := n - 1; i >= 0; i-- {
		bit := byte(v>>uint(i)) & 1
		if nbit%8 == 0 {
			buf = append(buf, 0)
		}
		if bit != 0 {
			buf[nbit/8] |= 0x80 >> uint(nbit%8)
		}
		nbit++
	}
	return buf, nbit
}

func TestWriteBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var w bitWriter
		var ref []byte
		refBits := 0
		for field := 0; field < 40; field++ {
			n := rng.Intn(65)
			v := rng.Uint64()
			w.writeBits(v, n)
			ref, refBits = refWriteBits(ref, refBits, v, n)
		}
		if w.bits() != refBits {
			t.Fatalf("trial %d: bits = %d, want %d", trial, w.bits(), refBits)
		}
		if !bytes.Equal(w.bytes(), ref) {
			t.Fatalf("trial %d: buf = %x, want %x", trial, w.bytes(), ref)
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		type field struct {
			v uint64
			n int
		}
		var fields []field
		var w bitWriter
		for i := 0; i < 50; i++ {
			n := rng.Intn(65)
			v := rng.Uint64()
			if n < 64 {
				v &= 1<<uint(n) - 1
			}
			fields = append(fields, field{v, n})
			w.writeBits(v, n)
		}
		r := bitReader{buf: w.bytes()}
		for i, f := range fields {
			got, ok := r.readBits(f.n)
			if !ok {
				t.Fatalf("trial %d field %d: underrun", trial, i)
			}
			if got != f.v {
				t.Fatalf("trial %d field %d: read %#x, want %#x (width %d)", trial, i, got, f.v, f.n)
			}
		}
	}
}

func TestWriteBitsPanicsOnBadWidth(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("writeBits(%d) did not panic", n)
				}
			}()
			var w bitWriter
			w.writeBits(0, n)
		}()
	}
}

func TestReadBitsUnderrun(t *testing.T) {
	r := bitReader{buf: []byte{0xff}}
	if _, ok := r.readBits(9); ok {
		t.Error("readBits(9) on 1 byte should fail")
	}
	if _, ok := r.readBits(8); !ok {
		t.Error("readBits(8) on 1 byte should succeed")
	}
	if r.remaining() != 0 {
		t.Errorf("remaining = %d, want 0", r.remaining())
	}
}

// TestBitAccMatchesBitWriter: the codecs' register emitter produces the
// bitWriter layout exactly, appended after whatever dst already holds,
// for field widths up to its 56-bit limit and payloads up to its
// BlockSize+8-byte buffer.
func TestBitAccMatchesBitWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := []byte{0xDE, 0xAD}
	for trial := 0; trial < 500; trial++ {
		var a bitAcc
		var w bitWriter
		for {
			n := rng.Intn(57)
			if w.bits()+n > 8*(BlockSize+8) {
				break
			}
			v := rng.Uint64()
			a.emit(v, n)
			w.writeBits(v, n)
		}
		if a.bits() != w.bits() {
			t.Fatalf("trial %d: bits = %d, want %d", trial, a.bits(), w.bits())
		}
		got := a.appendTo(append([]byte(nil), prefix...))
		if want := append(append([]byte(nil), prefix...), w.bytes()...); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: payload = %x, want %x", trial, got, want)
		}
	}
}

// FuzzBitIO checks both halves of the bit I/O on sequences of fields
// drawn from the input.
//
// Writing: at every start offset (a lead of 0–7 bits), the fields —
// widths 0–56 — go through bitAcc and the bitWriter oracle, and filler
// fields follow until the payload reaches bitAcc's BlockSize+8-byte
// limit, so the last 8 bytes of the buffer take spills on every run.
// Bits and payload must match.
//
// Reading: over the written payload and over every input prefix of up
// to 11 bytes (shorter than one window), peek at every bit offset must
// return the next 64-offset%8 bits, zeros past the end and below them
// (at least 57 bits of payload per window), and a read of each
// width 0–64 must return what the bit-at-a-time reader does, with the
// same cursor afterwards, and fail without moving on underrun.
func FuzzBitIO(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{56, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 1, 0x80})
	mixed := make([]byte, 64)
	for i := range mixed {
		mixed[i] = byte(37 * i) // widths i*37 mod 57, overlapping values
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var payload []byte
		for lead := 0; lead < 8; lead++ {
			var a bitAcc
			var w bitWriter
			emit := func(v uint64, n int) {
				a.emit(v, n)
				w.writeBits(v, n)
			}
			emit(uint64(0x5A)>>uint(8-lead), lead)
			limit := 8 * (BlockSize + 8)
			for i := 0; ; i++ {
				n, v := 0, uint64(0)
				if i < len(data) {
					n = int(data[i]) % 57
					var word [8]byte
					copy(word[:], data[i:])
					v = binary.LittleEndian.Uint64(word[:])
				} else {
					n = (7*i + lead) % 57 // filler up to the limit
					v = uint64(i) * 0x9E3779B97F4A7C15
				}
				if w.bits()+n > limit {
					if i >= len(data) {
						break
					}
					continue
				}
				emit(v, n)
			}
			if a.bits() != w.bits() {
				t.Fatalf("lead %d: bits = %d, want %d", lead, a.bits(), w.bits())
			}
			got := a.appendTo([]byte{0xC3})
			if want := append([]byte{0xC3}, w.bytes()...); !bytes.Equal(got, want) {
				t.Fatalf("lead %d: payload = %x, want %x", lead, got, want)
			}
			payload = got[1:]
		}
		bufs := [][]byte{payload}
		for n := 0; n <= min(len(data), 11); n++ {
			bufs = append(bufs, data[:n])
		}
		for _, buf := range bufs {
			for pos := 0; pos <= 8*len(buf); pos++ {
				var want uint64 // the 64-pos%8 bits from pos, zeros past the end
				for k := 0; k < 64-pos%8; k++ {
					if bit := pos + k; bit < 8*len(buf) {
						want |= uint64(buf[bit>>3]>>uint(7-bit&7)) & 1 << uint(63-k)
					}
				}
				if got := (&bitReader{buf: buf, pos: pos}).peek(); got != want {
					t.Fatalf("%d-byte buffer, bit %d: peek = %#x, want %#x", len(buf), pos, got, want)
				}
				for n := 0; n <= 64; n++ {
					r := bitReader{buf: buf, pos: pos}
					ref := refBitReader{buf: buf, pos: pos}
					got, ok := r.readBits(n)
					want, wantOK := ref.readBits(n)
					if got != want || ok != wantOK || r.pos != ref.pos {
						t.Fatalf("%d-byte buffer, bit %d, width %d: read (%#x, %v) to bit %d, want (%#x, %v) to bit %d",
							len(buf), pos, n, got, ok, r.pos, want, wantOK, ref.pos)
					}
				}
			}
		}
	})
}
