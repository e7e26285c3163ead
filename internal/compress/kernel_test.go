package compress

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// equalCompressed reports whether two results are bit-identical
// (including the stored flag and exact payload bytes).
func equalCompressed(a, b Compressed) bool {
	return a.Stored == b.Stored && a.SizeBits == b.SizeBits && bytes.Equal(a.Payload, b.Payload)
}

// kernelRefPair is one codec plus a closure running its retained scalar
// reference encoder.
type kernelRefPair struct {
	alg Algorithm
	ref func([]byte) Compressed
}

// kernelRefPairs returns every codec with a retained scalar reference
// encoder. SC2 is trained on the block zoo; the reference shares the
// trained table. Build once per test — training is not cheap.
func kernelRefPairs(t testing.TB) []kernelRefPair {
	s := NewSC2()
	s.Train(testBlocks(t))
	idx := refSC2Index(s)
	return []kernelRefPair{
		{NewDelta(), func(b []byte) Compressed { return refCompressDelta("delta", b) }},
		{NewBDI(), func(b []byte) Compressed { return refCompressBDI("bdi", b) }},
		{NewFPC(), func(b []byte) Compressed { return refCompressFPC("fpc", b) }},
		{NewSFPC(), func(b []byte) Compressed { return refCompressSFPC("sfpc", b) }},
		{s, func(b []byte) Compressed { return refCompressSC2(s, idx, b) }},
	}
}

// checkKernelBlock asserts, for one block, that every kernel codec is
// bit-identical to its scalar reference.
func checkKernelBlock(t testing.TB, pairs []kernelRefPair, block []byte) {
	for _, pair := range pairs {
		got := pair.alg.AppendCompress(nil, block)
		want := pair.ref(block)
		if !equalCompressed(got, want) {
			t.Fatalf("%s: kernel/reference mismatch\nblock  %x\nkernel stored=%v size=%d payload=%x\nref    stored=%v size=%d payload=%x",
				pair.alg.Name(), block,
				got.Stored, got.SizeBits, got.Payload,
				want.Stored, want.SizeBits, want.Payload)
		}
	}
}

// TestKernelEquivalenceZoo runs the kernel-vs-reference check over the
// deterministic block zoo (the same corpus the round-trip suite uses).
func TestKernelEquivalenceZoo(t *testing.T) {
	pairs := kernelRefPairs(t)
	for i, blk := range testBlocks(t) {
		t.Run(fmt.Sprintf("block%02d", i), func(t *testing.T) {
			checkKernelBlock(t, pairs, blk)
		})
	}
}

// FuzzKernelEquivalence is the differential fuzz target behind
// `make fuzz-smoke`: for arbitrary block content, every word-parallel
// kernel codec must produce bit-identical Compressed output to its
// retained scalar reference encoder.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(make([]byte, BlockSize))
	for _, blk := range testBlocks(f)[:8] {
		f.Add(append([]byte(nil), blk...))
	}
	pairs := kernelRefPairs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		block := make([]byte, BlockSize)
		copy(block, data)
		checkKernelBlock(t, pairs, block)
	})
}

// TestBufferContract pins the codec buffer API for every codec, None
// included, over the block zoo: AppendCompress appends exactly the
// payload it encodes into an empty dst after whatever dst already holds,
// and allocates nothing when dst has BlockSize spare bytes; and
// DecompressInto decodes the block back without allocating.
func TestBufferContract(t *testing.T) {
	algs := append(trained(t), NewNone())
	prefix := []byte("dst")
	for _, alg := range algs {
		for i, b := range testBlocks(t) {
			c := alg.AppendCompress(nil, b)
			a := alg.AppendCompress(slices.Clone(prefix), b)
			if a.Stored != c.Stored || a.SizeBits != c.SizeBits ||
				!bytes.Equal(a.Payload, append(slices.Clone(prefix), c.Payload...)) {
				t.Fatalf("%s block %d: AppendCompress onto %q differs from AppendCompress onto nil", alg.Name(), i, prefix)
			}
			var out [BlockSize]byte
			if err := alg.DecompressInto(&out, c); err != nil || !bytes.Equal(out[:], b) {
				t.Fatalf("%s block %d: DecompressInto: %v", alg.Name(), i, err)
			}
			if raceEnabled || i%8 != 0 {
				continue // the race detector allocates; sample the rest
			}
			var dst [BlockSize]byte
			allocs := map[string]float64{
				"AppendCompress": testing.AllocsPerRun(5, func() { alg.AppendCompress(dst[:0], b) }),
				"DecompressInto": testing.AllocsPerRun(5, func() { _ = alg.DecompressInto(&out, c) }),
			}
			for name, n := range allocs {
				if n != 0 {
					t.Fatalf("%s block %d: %s made %.0f allocations, want 0", alg.Name(), i, name, n)
				}
			}
		}
	}
}
