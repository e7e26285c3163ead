package compress_test

import (
	"encoding/binary"
	"fmt"

	"github.com/disco-sim/disco/internal/compress"
)

// ExampleDelta shows the paper's delta scheme on a pointer-rich block:
// eight 8-byte values sharing a base compress into base + one-byte deltas.
func ExampleDelta() {
	block := make([]byte, compress.BlockSize)
	base := uint64(0x7F00_0000_2000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(block[i*8:], base+uint64(i)*8)
	}
	alg := compress.NewDelta()
	var payload, round [compress.BlockSize]byte
	c := alg.AppendCompress(payload[:0], block)
	fmt.Printf("%d bytes -> %d bytes (ratio %.2f)\n", compress.BlockSize, c.SizeBytes(), c.Ratio())
	_ = alg.DecompressInto(&round, c)
	fmt.Println("lossless:", binary.LittleEndian.Uint64(round[56:]) == base+56)
	// Output:
	// 64 bytes -> 17 bytes (ratio 3.76)
	// lossless: true
}

// ExampleSC2 shows the statistical compressor's train-then-compress flow.
func ExampleSC2() {
	// The workload's blocks reuse a small set of values.
	mkBlock := func(v uint32) []byte {
		b := make([]byte, compress.BlockSize)
		for i := 0; i < compress.BlockSize; i += 4 {
			binary.LittleEndian.PutUint32(b[i:], v)
		}
		return b
	}
	s := compress.NewSC2()
	s.Train([][]byte{mkBlock(7), mkBlock(42), mkBlock(7)})
	c := s.AppendCompress(nil, mkBlock(7))
	fmt.Println("trained:", s.Trained())
	fmt.Println("compressed under 8 bytes:", c.SizeBytes() < 8)
	// Output:
	// trained: true
	// compressed under 8 bytes: true
}

// ExampleIncrementalDelta shows separate compression of a wormhole packet
// arriving in two fragments (Section 3.3A).
func ExampleIncrementalDelta() {
	flits := []uint64{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}
	inc := compress.NewIncrementalDelta()
	inc.Absorb(flits[:3]) // first fragment arrives
	inc.Absorb(flits[3:]) // rest of the packet
	fmt.Println("done:", inc.Done())
	fmt.Printf("merged: %d bits, bubble-padded: %d bits\n",
		inc.MergedSizeBits(), inc.FragmentPaddedBits())
	// Output:
	// done: true
	// merged: 129 bits, bubble-padded: 201 bits
}
