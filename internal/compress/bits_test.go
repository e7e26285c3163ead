package compress

import (
	"bytes"
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
