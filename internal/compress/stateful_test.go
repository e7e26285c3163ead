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

// TestStatefulModeSelection: for every codec, Encode must pick the same
// mode and produce the same bytes as a re-derivation from the block
// codec's Compress on the state before the block (strictly smaller
// wins, ties prefer direct, stored when neither candidate compresses).
// The stream crosses two retrains, so SC² and FVC are checked trained.
func TestStatefulModeSelection(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			alg, _ := New(name)
			enc := NewStateful(alg)
			var base [BlockSize]byte
			for i, b := range streamBlocks(2*retrainEvery + 100) {
				// Reference on the state BEFORE Encode advances it.
				wantMode, wantBits := ModeStored, 8*BlockSize
				var want Compressed
				if c := alg.AppendCompress(nil, b); !c.Stored && c.SizeBits < wantBits {
					wantMode, wantBits, want = ModeDirect, c.SizeBits, c
				}
				if i > 0 {
					resid := make([]byte, BlockSize)
					for j := range resid {
						resid[j] = b[j] ^ base[j]
					}
					if c := alg.AppendCompress(nil, resid); !c.Stored && c.SizeBits < wantBits {
						wantMode, wantBits, want = ModeResidual, c.SizeBits, c
					}
				}
				sb := enc.Encode(b)
				if sb.Mode != wantMode || sb.SizeBits != wantBits {
					t.Fatalf("block %d: got (mode %d, %d bits), want (mode %d, %d bits)",
						i, sb.Mode, sb.SizeBits, wantMode, wantBits)
				}
				if wantMode != ModeStored && !bytes.Equal(sb.Payload, want.Payload) {
					t.Fatalf("block %d: payload differs from Compress", i)
				}
				copy(base[:], b)
			}
		})
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestStatefulAllocs is the runtime gate behind Stateful's hotalloc
// roots: once the stream has warmed up on a block set whose words are
// all in the histogram (so retrains rebuild over an unchanged value
// set), Encode and Decode allocate nothing for any codec, stored,
// direct and residual modes and retrains included. Each measurement is
// one AllocsPerRun over a whole batch, so it is the batch's exact
// allocation count, not a per-call average rounded down.
func TestStatefulAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	blocks := streamBlocks(40)
	const batch = 3 * retrainEvery
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ea, _ := New(name)
			da, _ := New(name)
			enc, dec := NewStateful(ea), NewStateful(da)
			for i := 0; i < 2*retrainEvery; i++ {
				if _, err := dec.Decode(enc.Encode(blocks[i%len(blocks)])); err != nil {
					t.Fatal(err)
				}
			}
			// Encode batches, stashing every frame in preallocated
			// storage, then Decode batches over the stash. AllocsPerRun
			// runs its function twice (warm-up, measured), so both sides
			// see the same 2*batch blocks in the same order.
			type frame struct {
				sb      StatefulBlock
				payload [BlockSize]byte
			}
			frames := make([]frame, 2*batch)
			next := 0
			encAllocs := testing.AllocsPerRun(1, func() {
				for range batch {
					sb := enc.Encode(blocks[next%len(blocks)])
					f := &frames[next]
					f.sb = sb
					f.sb.Payload = f.payload[:copy(f.payload[:], sb.Payload)]
					next++
				}
			})
			next = 0
			var bad error
			decAllocs := testing.AllocsPerRun(1, func() {
				for range batch {
					out, err := dec.Decode(frames[next].sb)
					if err == nil && !bytes.Equal(out, blocks[next%len(blocks)]) {
						err = ErrCorrupt
					}
					if err != nil && bad == nil {
						bad = err
					}
					next++
				}
			})
			if bad != nil {
				t.Fatalf("round trip failed: %v", bad)
			}
			t.Logf("%s: %.0f allocs over %d Encodes, %.0f over %d Decodes", name, encAllocs, batch, decAllocs, batch)
			if encAllocs != 0 || decAllocs != 0 {
				t.Fatalf("%s: %.0f allocs over %d Encodes and %.0f over %d Decodes, want 0",
					name, encAllocs, batch, decAllocs, batch)
			}
		})
	}
}

// TestStatefulScratchOwnership pins the buffer contract of Encode and
// Decode: a frame's Payload aliases encoder scratch until the next
// Encode, so a caller that keeps frames copies them, and those copies
// decode exactly; the caller's input block is never retained, so
// changing it after Encode cannot change the frame.
func TestStatefulScratchOwnership(t *testing.T) {
	blocks := streamBlocks(300)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			ea, _ := New(name)
			da, _ := New(name)
			enc, dec := NewStateful(ea), NewStateful(da)
			kept := make([]StatefulBlock, len(blocks))
			for i, b := range blocks {
				in := slices.Clone(b)
				sb := enc.Encode(in)
				frame := slices.Clone(sb.Payload)
				for j := range in {
					in[j] ^= 0xA5 // the caller reuses its buffer
				}
				if !bytes.Equal(sb.Payload, frame) {
					t.Fatalf("block %d (mode %d): changing the input block changed the frame", i, sb.Mode)
				}
				sb.Payload = frame
				kept[i] = sb
			}
			for i, sb := range kept {
				got, err := dec.Decode(sb)
				if err != nil || !bytes.Equal(got, blocks[i]) {
					t.Fatalf("block %d (mode %d): a frame copied before later Encodes no longer decodes: %v", i, sb.Mode, err)
				}
			}
		})
	}
}

// FuzzStatefulDecode feeds one arbitrary (mode, sizeBits, payload)
// frame to a decoder that is in step with a genuine stream (the prefix
// may cross a retrain). It must never panic. If the frame is rejected,
// the decoder must be exactly where it was: Blocks() unchanged, and the
// next genuine frame — which may be a residual against the base —
// still decodes to its plaintext, proving the failed decode touched
// neither the base nor a trained table.
func FuzzStatefulDecode(f *testing.F) {
	f.Add(uint8(0), uint16(40), uint8(ModeResidual), uint16(100), make([]byte, 16))
	f.Add(uint8(5), uint16(retrainEvery+3), uint8(ModeDirect), uint16(200), []byte{0xFF, 0x00, 0x13, 0x37, 0x42})
	f.Add(uint8(6), uint16(retrainEvery+1), uint8(ModeDirect), uint16(96), bytes.Repeat([]byte{0x80}, 12))
	f.Add(uint8(4), uint16(7), uint8(ModeStored), uint16(8*BlockSize), make([]byte, BlockSize-1))
	f.Add(uint8(2), uint16(1), uint8(0x7F), uint16(8), []byte{1, 2, 3})
	names := Names()
	blocks := streamBlocks(retrainEvery + 9)
	f.Fuzz(func(t *testing.T, codec uint8, prefix uint16, mode uint8, sizeBits uint16, payload []byte) {
		name := names[int(codec)%len(names)]
		n := int(prefix) % (len(blocks) - 1)
		ea, _ := New(name)
		da, _ := New(name)
		enc, dec := NewStateful(ea), NewStateful(da)
		for i, b := range blocks[:n] {
			if _, err := dec.Decode(enc.Encode(b)); err != nil {
				t.Fatalf("%s: genuine block %d failed: %v", name, i, err)
			}
		}
		before := dec.Blocks()
		out, err := dec.Decode(StatefulBlock{Mode: BlockMode(mode), SizeBits: int(sizeBits), Payload: payload})
		if err == nil {
			if len(out) != BlockSize {
				t.Fatalf("%s: decoded %d bytes, want %d", name, len(out), BlockSize)
			}
			return // a well-formed frame: the stream has legitimately moved on
		}
		if dec.Blocks() != before {
			t.Fatalf("%s: a rejected frame advanced the stream (%d -> %d blocks)", name, before, dec.Blocks())
		}
		got, err := dec.Decode(enc.Encode(blocks[n]))
		if err != nil || !bytes.Equal(got, blocks[n]) {
			t.Fatalf("%s: genuine block after a rejected frame failed to decode (%v): the failed decode changed the state", name, err)
		}
	})
}
