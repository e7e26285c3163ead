package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestDecompressNeverPanicsOnGarbage feeds random payloads to every
// decoder: they must return either a block or ErrCorrupt, never panic,
// and allocate nothing (a router must survive a corrupted engine
// result), and the bit-field decoders must agree with their
// field-at-a-time references.
func TestDecompressNeverPanicsOnGarbage(t *testing.T) {
	algs := decoderZoo(t)
	f := func(seed int64, sizeBits uint16, stored bool) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, rng.Intn(80))
		rng.Read(payload)
		c := Compressed{
			Alg:      "fuzz",
			SizeBits: int(sizeBits%600) + 1,
			Stored:   stored,
			Payload:  payload,
		}
		var into [BlockSize]byte
		decodeAll := func() {
			for _, alg := range algs {
				_ = alg.DecompressInto(&into, c)
			}
		}
		if raceEnabled {
			decodeAll()
		} else if allocs := testing.AllocsPerRun(1, decodeAll); allocs != 0 {
			t.Fatalf("DecompressInto made %.0f allocations across the decoders, want 0", allocs)
		}
		for _, alg := range algs {
			checkDecodeMatchesRef(t, alg, c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// decoderZoo is trained() plus an SC² and an FVC trained on one block
// of three distinct words, whose tables hold fewer entries than their
// codes can name.
func decoderZoo(t testing.TB) []Algorithm {
	blk := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(blk[4:], 7)
	binary.LittleEndian.PutUint32(blk[8:], 0xDEADBEEF)
	sc2, fvc := NewSC2(), NewFVC()
	sc2.Train([][]byte{blk})
	fvc.Train([][]byte{blk})
	return append(trained(t), sc2, fvc)
}

// TestTruncatedPayloadsRejected truncates valid encodings at every byte
// boundary: every decoder must fail cleanly, never panic (or still
// produce a block from a prefix that happens to decode, e.g. bit-packed
// formats whose tail bits are padding), exactly where its
// field-at-a-time reference does. Besides the first test blocks, it
// cuts each of them with its last word replaced by 16 arbitrary
// values, so the cuts land at every offset into a final raw word.
func TestTruncatedPayloadsRejected(t *testing.T) {
	blocks := testBlocks(t)[:6]
	for _, blk := range testBlocks(t) {
		for k := uint32(1); k <= 16; k++ {
			b := slices.Clone(blk)
			binary.LittleEndian.PutUint32(b[BlockSize-WordSize:], k*0x9E3779B1)
			blocks = append(blocks, b)
		}
	}
	for _, alg := range decoderZoo(t) {
		for _, blk := range blocks {
			c := alg.AppendCompress(nil, blk)
			if c.Stored {
				continue
			}
			for cut := 0; cut < len(c.Payload); cut++ {
				tr := c
				tr.Payload = c.Payload[:cut]
				var out [BlockSize]byte
				_ = alg.DecompressInto(&out, tr)
				checkDecodeMatchesRef(t, alg, tr)
			}
		}
	}
}

// TestBitFlipsSurvive flips each bit of a valid encoding: decoders must
// not panic, and must accept or reject it as their references do.
func TestBitFlipsSurvive(t *testing.T) {
	for _, alg := range decoderZoo(t) {
		blk := testBlocks(t)[3] // narrow ints: compresses under all schemes
		c := alg.AppendCompress(nil, blk)
		if c.Stored {
			continue
		}
		for bit := 0; bit < 8*len(c.Payload); bit++ {
			mut := c
			mut.Payload = append([]byte(nil), c.Payload...)
			mut.Payload[bit/8] ^= 1 << uint(7-bit%8)
			var out [BlockSize]byte
			_ = alg.DecompressInto(&out, mut)
			checkDecodeMatchesRef(t, alg, mut)
		}
	}
}

// TestCompressIsPure verifies Compress does not alias or mutate its input
// and is deterministic.
func TestCompressIsPure(t *testing.T) {
	for _, alg := range trained(t) {
		for _, blk := range testBlocks(t) {
			orig := append([]byte(nil), blk...)
			c1 := alg.AppendCompress(nil, blk)
			c2 := alg.AppendCompress(nil, blk)
			if !bytes.Equal(blk, orig) {
				t.Fatalf("%s mutated its input", alg.Name())
			}
			if c1.SizeBits != c2.SizeBits || !bytes.Equal(c1.Payload, c2.Payload) {
				t.Fatalf("%s is not deterministic", alg.Name())
			}
			// Mutating the input afterwards must not change the result
			// (no aliasing of the payload buffer).
			blk[0] ^= 0xFF
			if !bytes.Equal(c1.Payload, c2.Payload) {
				t.Fatalf("%s aliases its input", alg.Name())
			}
			blk[0] ^= 0xFF
		}
	}
}

// TestSizeAccountingMatchesPayload: SizeBits must cover the payload the
// decoder actually consumes — the payload may carry padding or be a
// different container, but never more than the hardware size plus
// encoding slack, and a stored block is exactly BlockSize.
func TestSizeAccountingMatchesPayload(t *testing.T) {
	for _, alg := range trained(t) {
		for i, blk := range testBlocks(t) {
			c := alg.AppendCompress(nil, blk)
			if c.Stored {
				if c.SizeBits != 8*BlockSize {
					t.Fatalf("%s block %d: stored with SizeBits %d", alg.Name(), i, c.SizeBits)
				}
				continue
			}
			if c.SizeBytes() > BlockSize {
				t.Fatalf("%s block %d: compressed bigger than raw", alg.Name(), i)
			}
		}
	}
}

// TestRatioMonotonicity: concatenating more zero content never makes a
// block compress worse under any scheme.
func TestRatioMonotonicity(t *testing.T) {
	for _, alg := range trained(t) {
		prevSize := 0
		for zeros := 0; zeros <= BlockSize; zeros += 16 {
			blk := make([]byte, BlockSize)
			rng := rand.New(rand.NewSource(1)) // same suffix randomness each time
			rng.Read(blk)
			for i := 0; i < zeros; i++ {
				blk[i] = 0
			}
			size := alg.AppendCompress(nil, blk).SizeBytes()
			if zeros > 0 && size > prevSize+8 {
				// Allow small non-monotonic wiggle (pattern boundaries),
				// but a strongly zero-padded block must not inflate.
				t.Errorf("%s: %d zero bytes -> %dB, previous %dB", alg.Name(), zeros, size, prevSize)
			}
			prevSize = size
		}
	}
}

// TestSC2EscapeOnlyStream checks a block of entirely unseen values decodes
// correctly through the escape path.
func TestSC2EscapeOnlyStream(t *testing.T) {
	s := NewSC2()
	// Train on zeros only.
	s.Train([][]byte{make([]byte, BlockSize)})
	rng := rand.New(rand.NewSource(5))
	blk := make([]byte, BlockSize)
	rng.Read(blk)
	c := s.AppendCompress(nil, blk)
	out, err := decode(s, c)
	if err != nil || !bytes.Equal(out, blk) {
		t.Fatal("escape-only round trip failed")
	}
}

// TestSC2UntrainedDecompressRejected: decoding a non-stored payload with
// an untrained table must fail, not crash.
func TestSC2UntrainedDecompressRejected(t *testing.T) {
	s := NewSC2()
	if _, err := decode(s, Compressed{SizeBits: 40, Payload: []byte{1, 2, 3}}); err == nil {
		t.Error("untrained decode should fail")
	}
}

// TestIncrementalDeltaFragmentSizesConsistent: for random fragmentation
// the padded size is monotone in fragment count (more fragments, more
// bubbles) for the same content.
func TestIncrementalDeltaFragmentSizesConsistent(t *testing.T) {
	flits := make([]uint64, 8)
	for i := range flits {
		flits[i] = 0x2000_0000 + uint64(i)
	}
	pad := func(splits []int) int {
		inc := NewIncrementalDelta()
		prev := 0
		for _, s := range splits {
			if !inc.Absorb(flits[prev:s]) {
				t.Fatal("absorb failed")
			}
			prev = s
		}
		if !inc.Absorb(flits[prev:]) || !inc.Done() {
			t.Fatal("final absorb failed")
		}
		return inc.FragmentPaddedBits()
	}
	whole := pad(nil)
	two := pad([]int{4})
	four := pad([]int{2, 4, 6})
	if !(whole <= two && two <= four) {
		t.Errorf("padded bits not monotone in fragmentation: %d, %d, %d", whole, two, four)
	}
}

// FuzzDecompress is the native fuzz target behind `make fuzz-smoke`
// (go test -fuzz=Fuzz): arbitrary payloads through every decoder must
// decode a block or return ErrCorrupt — never panic — and decoding into
// caller memory must allocate nothing, accepted or rejected. The
// bit-field decoders must accept and reject exactly what their
// field-at-a-time references do. Compressing the result of a successful
// decode must round-trip.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{}, uint16(1), false)
	f.Add([]byte{0x00, 0xFF, 0x13, 0x37}, uint16(32), false)
	f.Add(make([]byte, BlockSize), uint16(8*BlockSize), true)
	algs := decoderZoo(f)
	f.Fuzz(func(t *testing.T, payload []byte, sizeBits uint16, stored bool) {
		c := Compressed{
			Alg:      "fuzz",
			SizeBits: int(sizeBits%600) + 1,
			Stored:   stored,
			Payload:  payload,
		}
		if !raceEnabled {
			var into [BlockSize]byte
			allocs := testing.AllocsPerRun(1, func() {
				for _, alg := range algs {
					_ = alg.DecompressInto(&into, c)
				}
			})
			if allocs != 0 {
				t.Fatalf("DecompressInto made %.0f allocations across the decoders, want 0", allocs)
			}
		}
		for _, alg := range algs {
			checkDecodeMatchesRef(t, alg, c)
			var out, back [BlockSize]byte
			if alg.DecompressInto(&out, c) != nil {
				continue
			}
			// A decodable block must survive its own compress cycle.
			rt := alg.AppendCompress(nil, out[:])
			if err := alg.DecompressInto(&back, rt); err != nil || back != out {
				t.Fatalf("%s: round trip after fuzz decode failed: %v", alg.Name(), err)
			}
		}
	})
}
