package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// streamBlocks builds a deterministic plaintext block sequence with
// value locality between consecutive blocks (the case the persistent
// delta base exists for) plus pattern edges.
func streamBlocks(n int) [][]byte {
	blocks := make([][]byte, 0, n)
	seed := uint64(0x9E3779B97F4A7C15)
	base := make([]byte, BlockSize)
	for i := 0; i < n; i++ {
		b := make([]byte, BlockSize)
		switch i % 5 {
		case 0: // all-zero
		case 1: // slowly drifting counters: tiny XOR residuals
			copy(b, base)
			for j := 0; j < BlockSize; j += FlitBytes {
				v := binary.LittleEndian.Uint64(b[j:])
				binary.LittleEndian.PutUint64(b[j:], v+uint64(i))
			}
		case 2: // repeated word
			for j := 0; j < BlockSize; j += WordSize {
				binary.LittleEndian.PutUint32(b[j:], uint32(i)*0x01010101)
			}
		case 3: // pseudorandom (incompressible)
			for j := 0; j < BlockSize; j += 8 {
				seed += 0x9E3779B97F4A7C15
				z := seed
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				binary.LittleEndian.PutUint64(b[j:], z^(z>>31))
			}
		case 4: // previous block exactly (zero residual)
			copy(b, base)
		}
		copy(base, b)
		blocks = append(blocks, b)
	}
	return blocks
}

// TestStatefulRoundTrip pushes a block sequence through a fresh
// encoder/decoder pair for every registered codec and requires
// bit-exact recovery plus identical state evolution on both sides.
func TestStatefulRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ea, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			da, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			enc, dec := NewStateful(ea), NewStateful(da)
			residuals := 0
			for i, b := range streamBlocks(600) {
				sb := enc.Encode(b)
				if sb.Mode == ModeResidual {
					residuals++
				}
				if sb.SizeBits > 8*BlockSize {
					t.Fatalf("block %d: SizeBits %d exceeds stored", i, sb.SizeBits)
				}
				got, err := dec.Decode(sb)
				if err != nil {
					t.Fatalf("block %d (mode %d): %v", i, sb.Mode, err)
				}
				if !bytes.Equal(got, b) {
					t.Fatalf("block %d (mode %d): round-trip mismatch", i, sb.Mode)
				}
			}
			if enc.Blocks() != dec.Blocks() || enc.Blocks() != 600 {
				t.Fatalf("block counts diverged: enc=%d dec=%d", enc.Blocks(), dec.Blocks())
			}
			// The delta-family codecs must actually exploit the base on
			// the drifting-counter / repeated-block subsequences.
			if name == "delta" && residuals == 0 {
				t.Fatalf("delta never chose ModeResidual on a value-local stream")
			}
		})
	}
}

// TestStatefulResidualBeforeBase is a protocol violation: a residual
// block with no prior plaintext must error, not desync.
func TestStatefulResidualBeforeBase(t *testing.T) {
	dec := NewStateful(NewDelta())
	_, err := dec.Decode(StatefulBlock{Mode: ModeResidual, SizeBits: 100, Payload: make([]byte, 16)})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if dec.Blocks() != 0 {
		t.Fatalf("failed decode advanced the stream state")
	}
}

// TestStatefulDecodeCorrupt covers the malformed-payload paths of every
// mode: the decoder must reject and must not advance.
func TestStatefulDecodeCorrupt(t *testing.T) {
	cases := []StatefulBlock{
		{Mode: ModeStored, SizeBits: 8 * BlockSize, Payload: make([]byte, 10)},
		{Mode: ModeStored, SizeBits: 7, Payload: make([]byte, BlockSize)},
		{Mode: ModeDirect, SizeBits: 40, Payload: nil},
		{Mode: BlockMode(42), SizeBits: 8, Payload: make([]byte, 8)},
	}
	for i, sb := range cases {
		dec := NewStateful(NewFPC())
		if _, err := dec.Decode(sb); err == nil {
			t.Fatalf("case %d: corrupt block decoded cleanly", i)
		}
		if dec.Blocks() != 0 {
			t.Fatalf("case %d: failed decode advanced the stream state", i)
		}
	}
}

// TestStatefulReset forgets the base: the first post-Reset encode must
// not emit a residual, and a mirrored Reset keeps the pair in sync.
func TestStatefulReset(t *testing.T) {
	enc, dec := NewStateful(NewDelta()), NewStateful(NewDelta())
	blocks := streamBlocks(10)
	for _, b := range blocks {
		if _, err := dec.Decode(enc.Encode(b)); err != nil {
			t.Fatal(err)
		}
	}
	enc.Reset()
	dec.Reset()
	if enc.Blocks() != 0 {
		t.Fatalf("Reset kept the block count")
	}
	sb := enc.Encode(blocks[1])
	if sb.Mode == ModeResidual {
		t.Fatalf("first post-Reset block used the forgotten base")
	}
	got, err := dec.Decode(sb)
	if err != nil || !bytes.Equal(got, blocks[1]) {
		t.Fatalf("post-Reset round trip failed: %v", err)
	}
}

// TestStatefulTrainableMirrors streams 64 retrain periods of mixed
// counter/repeat/zero/random blocks through SC²/FVC encode/decode pairs.
// The decode side must track the encoder's table rebuilds exactly while
// the histograms grow to tens of thousands of values: any divergence
// breaks the round trip at the first post-retrain block, and both ends
// must finish with the same table.
func TestStatefulTrainableMirrors(t *testing.T) {
	const retrains = 64
	for _, name := range []string{"sc2", "fvc"} {
		t.Run(name, func(t *testing.T) {
			ea, _ := New(name)
			da, _ := New(name)
			enc, dec := NewStateful(ea), NewStateful(da)
			compressed := 0
			for i, b := range streamBlocks(retrains*retrainEvery + 1) {
				sb := enc.Encode(b)
				if sb.Mode != ModeStored {
					compressed++
				}
				got, err := dec.Decode(sb)
				if err != nil || !bytes.Equal(got, b) {
					t.Fatalf("block %d (mode %d): %v", i, sb.Mode, err)
				}
			}
			if enc.seen/retrainEvery < retrains || dec.seen != enc.seen {
				t.Fatalf("crossed %d retrains (enc %d, dec %d blocks), want %d",
					enc.seen/retrainEvery, enc.seen, dec.seen, retrains)
			}
			if compressed == 0 {
				t.Fatalf("%s never compressed after online training", name)
			}
			switch e := ea.(type) {
			case *SC2:
				d := da.(*SC2)
				if !slices.Equal(e.values, d.values) || !slices.Equal(e.codes, d.codes) {
					t.Fatalf("sc2 tables diverged between the stream ends")
				}
			case *FVC:
				if !slices.Equal(e.values, da.(*FVC).values) {
					t.Fatalf("fvc tables diverged between the stream ends")
				}
			}
		})
	}
}

// TestStatefulProbeParity: the probe fast path must pick the same mode
// and produce the same bytes as a scalar re-derivation via Compress.
func TestStatefulProbeParity(t *testing.T) {
	for _, name := range []string{"delta", "bdi", "fpc", "sfpc", "sc2"} {
		t.Run(name, func(t *testing.T) {
			alg, _ := New(name)
			enc := NewStateful(alg)
			var base [BlockSize]byte
			for i, b := range streamBlocks(200) {
				// Scalar reference on the state BEFORE Encode advances it.
				wantMode, wantBits := ModeStored, 8*BlockSize
				var want Compressed
				if c := alg.Compress(b); !c.Stored && c.SizeBits < wantBits {
					wantMode, wantBits, want = ModeDirect, c.SizeBits, c
				}
				if i > 0 {
					resid := make([]byte, BlockSize)
					for j := range resid {
						resid[j] = b[j] ^ base[j]
					}
					if c := alg.Compress(resid); !c.Stored && c.SizeBits < wantBits {
						wantMode, wantBits, want = ModeResidual, c.SizeBits, c
					}
				}
				sb := enc.Encode(b)
				if sb.Mode != wantMode || sb.SizeBits != wantBits {
					t.Fatalf("block %d: got (mode %d, %d bits), want (mode %d, %d bits)",
						i, sb.Mode, sb.SizeBits, wantMode, wantBits)
				}
				if wantMode != ModeStored && !bytes.Equal(sb.Payload, want.Payload) {
					t.Fatalf("block %d: payload differs from scalar reference", i)
				}
				copy(base[:], b)
			}
		})
	}
}
