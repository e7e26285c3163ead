package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// testBlocks builds a deterministic zoo of interesting blocks.
func testBlocks(t testing.TB) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var blocks [][]byte
	add := func(b []byte) {
		if len(b) != BlockSize {
			t.Fatalf("test block has %d bytes", len(b))
		}
		blocks = append(blocks, b)
	}
	// All zeros.
	add(make([]byte, BlockSize))
	// All ones.
	ones := make([]byte, BlockSize)
	for i := range ones {
		ones[i] = 0xFF
	}
	add(ones)
	// Repeated 8-byte value.
	rep := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 8 {
		binary.LittleEndian.PutUint64(rep[i:], 0xDEADBEEFCAFE0123)
	}
	add(rep)
	// Narrow positive integers in 8-byte slots.
	narrow := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(narrow[i*8:], uint64(i*3))
	}
	add(narrow)
	// Pointer-like values (large base, small deltas).
	ptr := make([]byte, BlockSize)
	base := uint64(0x00007F3A12340000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(ptr[i*8:], base+uint64(i*24))
	}
	add(ptr)
	// Negative small ints in 32-bit words.
	negs := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(negs[i*4:], uint32(int32(-int32(i)-1)))
	}
	add(negs)
	// Half-zero, half-random.
	hz := make([]byte, BlockSize)
	rng.Read(hz[32:])
	add(hz)
	// Pure random (incompressible).
	rnd := make([]byte, BlockSize)
	rng.Read(rnd)
	add(rnd)
	// 16-bit values in 32-bit words.
	h16 := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(h16[i*4:], uint64len16(rng))
	}
	add(h16)
	// Repeated bytes per word.
	rb := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		b := byte(0x41 + i)
		binary.LittleEndian.PutUint32(rb[i*4:], uint32(b)|uint32(b)<<8|uint32(b)<<16|uint32(b)<<24)
	}
	add(rb)
	// Upper-half-only words (padded16 pattern).
	up := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(up[i*4:], uint32(rng.Intn(1<<16))<<16)
	}
	add(up)
	// Text-like ASCII.
	txt := bytes.Repeat([]byte("the quick brown "), 4)
	add(txt[:BlockSize])
	return blocks
}

func uint64len16(rng *rand.Rand) uint32 { return uint32(rng.Intn(1 << 15)) }

// trained returns every algorithm, with the statistical schemes (SC2,
// FVC) trained on the block zoo.
func trained(t testing.TB) []Algorithm {
	algs := All()
	for _, a := range algs {
		switch s := a.(type) {
		case *SC2:
			s.Train(testBlocks(t))
		case *FVC:
			s.Train(testBlocks(t))
		}
	}
	return algs
}

// decode is DecompressInto a fresh block, for tests that compare or
// keep the result.
func decode(a Algorithm, c Compressed) ([]byte, error) {
	out := new([BlockSize]byte)
	if err := a.DecompressInto(out, c); err != nil {
		return nil, err
	}
	return out[:], nil
}

func TestRoundTripZoo(t *testing.T) {
	for _, alg := range trained(t) {
		for i, b := range testBlocks(t) {
			c := alg.AppendCompress(nil, b)
			got, err := decode(alg, c)
			if err != nil {
				t.Fatalf("%s block %d: decompress error: %v", alg.Name(), i, err)
			}
			if !bytes.Equal(got, b) {
				t.Fatalf("%s block %d: round trip mismatch", alg.Name(), i)
			}
			if c.SizeBits <= 0 || c.SizeBits > 8*BlockSize {
				t.Fatalf("%s block %d: size %d bits out of range", alg.Name(), i, c.SizeBits)
			}
		}
	}
}

// Property: all algorithms round-trip arbitrary random blocks and never
// report a size above the raw block.
func TestRoundTripProperty(t *testing.T) {
	algs := trained(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, BlockSize)
		// Mix of structured and random content depending on the seed.
		switch seed % 4 {
		case 0:
			rng.Read(b)
		case 1:
			base := rng.Uint64()
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(b[i*8:], base+uint64(rng.Intn(512))-256)
			}
		case 2:
			for i := 0; i < 16; i++ {
				binary.LittleEndian.PutUint32(b[i*4:], uint32(rng.Intn(256)))
			}
		default:
			// sparse
			for i := 0; i < 4; i++ {
				b[rng.Intn(BlockSize)] = byte(rng.Intn(256))
			}
		}
		for _, alg := range algs {
			c := alg.AppendCompress(nil, b)
			if c.SizeBits > 8*BlockSize {
				return false
			}
			got, err := decode(alg, c)
			if err != nil || !bytes.Equal(got, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for short block")
		}
	}()
	NewDelta().AppendCompress(nil, make([]byte, 10))
}

func TestDeltaZeroBlockCompresses(t *testing.T) {
	d := NewDelta()
	c := d.AppendCompress(nil, make([]byte, BlockSize))
	if c.Stored {
		t.Fatal("zero block should compress")
	}
	if c.SizeBytes() > 17 {
		t.Errorf("zero block size %dB, want <= 17B (Δ1)", c.SizeBytes())
	}
}

func TestDeltaNarrowBlockUsesOneByteDeltas(t *testing.T) {
	b := make([]byte, BlockSize)
	base := uint64(0x1000_0000_0000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i*7))
	}
	c := NewDelta().AppendCompress(nil, b)
	if c.Stored {
		t.Fatal("narrow deltas should compress")
	}
	want := deltaSizeBits(1)
	if c.SizeBits != want {
		t.Errorf("SizeBits = %d, want %d", c.SizeBits, want)
	}
}

func TestDeltaMixedBasesBothUsed(t *testing.T) {
	// Half the flits near zero, half near a large base: needs both bases.
	b := make([]byte, BlockSize)
	base := uint64(0xABCD_0000_1234_0000)
	for i := 0; i < 8; i++ {
		v := uint64(i) // near zero
		if i%2 == 0 {
			v = base + uint64(i)
		}
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	d := NewDelta()
	c := d.AppendCompress(nil, b)
	if c.Stored {
		t.Fatal("dual-base block should compress")
	}
	got, err := decode(d, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatal("round trip failed")
	}
}

func TestDeltaIncompressibleStored(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, BlockSize)
	rng.Read(b)
	c := NewDelta().AppendCompress(nil, b)
	if !c.Stored {
		// Random 64-bit flits essentially never share 4-byte deltas.
		t.Fatalf("random block unexpectedly compressed to %d bits", c.SizeBits)
	}
	if c.SizeBits != 8*BlockSize {
		t.Error("stored block must report full size")
	}
}

func TestDeltaDecompressCorrupt(t *testing.T) {
	d := NewDelta()
	cases := []Compressed{
		{Alg: "delta", SizeBits: 10, Payload: []byte{1}},
		{Alg: "delta", SizeBits: 10, Payload: append([]byte{3, 0}, make([]byte, 20)...)}, // bad width
		{Alg: "delta", SizeBits: 10, Payload: append([]byte{1, 0}, make([]byte, 5)...)},  // short
		{Alg: "delta", Stored: true, Payload: []byte{1, 2}},                              // short stored
	}
	for i, c := range cases {
		if _, err := decode(d, c); err == nil {
			t.Errorf("case %d: expected corrupt error", i)
		}
	}
}

func TestBDIZeroAndRepeated(t *testing.T) {
	b := NewBDI()
	z := b.AppendCompress(nil, make([]byte, BlockSize))
	if z.SizeBytes() != 1 {
		t.Errorf("zero block = %dB, want 1B", z.SizeBytes())
	}
	rep := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 8 {
		binary.LittleEndian.PutUint64(rep[i:], 0x1122334455667788)
	}
	r := b.AppendCompress(nil, rep)
	if r.SizeBytes() != 9 {
		t.Errorf("repeated block = %dB, want 9B (tag+8)", r.SizeBytes())
	}
}

func TestBDIBase8Delta1Size(t *testing.T) {
	// Pointer-style block: 8-byte base + small deltas -> B8Δ1.
	b := make([]byte, BlockSize)
	base := uint64(0x7FFF_0000_0000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i))
	}
	c := NewBDI().AppendCompress(nil, b)
	if c.Stored {
		t.Fatal("should compress")
	}
	// 4 tag bits + 8 mask bits + 8B base + 8 deltas = 4+8+64+64 = 140 bits.
	if c.SizeBits != 140 {
		t.Errorf("SizeBits = %d, want 140", c.SizeBits)
	}
}

func TestBDIRatioOnMix(t *testing.T) {
	// Sanity: BΔI should land in the vicinity of Table 1's 1.5x on a
	// mixed compressible/incompressible set.
	alg := NewBDI()
	var raw, comp int
	for _, b := range testBlocks(t) {
		c := alg.AppendCompress(nil, b)
		raw += BlockSize
		comp += c.SizeBytes()
	}
	ratio := float64(raw) / float64(comp)
	if ratio < 1.2 || ratio > 5 {
		t.Errorf("BDI ratio on zoo = %.2f, expected in [1.2, 5]", ratio)
	}
}

func TestFPCPatterns(t *testing.T) {
	a := NewFPC()
	// One word of each pattern class, rest zeros (zero-run).
	b := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(b[0:], 7)           // SE4
	binary.LittleEndian.PutUint32(b[4:], 0xFFFFFF80)  // SE8 (-128)
	binary.LittleEndian.PutUint32(b[8:], 30000)       // SE16
	binary.LittleEndian.PutUint32(b[12:], 0xABCD0000) // padded16
	binary.LittleEndian.PutUint32(b[16:], 0x00050003) // two halfwords SE8
	binary.LittleEndian.PutUint32(b[20:], 0x51515151) // repeated byte
	binary.LittleEndian.PutUint32(b[24:], 0x12345678) // uncompressed
	c := a.AppendCompress(nil, b)
	if c.Stored {
		t.Fatal("pattern block should compress")
	}
	got, err := decode(a, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatal("round trip failed")
	}
	// 7 words + 9 zero words (2 runs: 8 + 1): prefix cost check.
	// zero runs: 2*(3+3)=12; SE4 3+4=7; SE8 3+8=11; SE16 3+16=19;
	// padded 3+16=19; twohalf 3+16=19; rep 3+8=11; uncmp 3+32=35. total 133.
	if c.SizeBits != 133 {
		t.Errorf("SizeBits = %d, want 133", c.SizeBits)
	}
}

func TestFPCZeroRunSplitsAtEight(t *testing.T) {
	a := NewFPC()
	c := a.AppendCompress(nil, make([]byte, BlockSize)) // 16 zero words = 2 runs of 8
	if c.SizeBits != 12 {
		t.Errorf("all-zero block = %d bits, want 12 (two max runs)", c.SizeBits)
	}
}

func TestSFPCRoundTripAndRatioOrdering(t *testing.T) {
	// SFPC has fewer patterns than FPC, so it can never beat FPC by more
	// than the prefix-width difference; on the zoo its total must be >=
	// FPC's total minus the prefix savings. We assert the coarser
	// property: SFPC total >= FPC total * 0.8.
	fpc, sfpc := NewFPC(), NewSFPC()
	var tf, ts int
	for _, b := range testBlocks(t) {
		tf += fpc.AppendCompress(nil, b).SizeBytes()
		ts += sfpc.AppendCompress(nil, b).SizeBytes()
	}
	if float64(ts) < 0.8*float64(tf) {
		t.Errorf("SFPC (%dB) implausibly beats FPC (%dB)", ts, tf)
	}
}

func TestCPackDictionaryMatch(t *testing.T) {
	a := NewCPack()
	b := make([]byte, BlockSize)
	// Same word repeated: first xxxx, then 15 mmmm matches.
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], 0xCAFEBABE)
	}
	c := a.AppendCompress(nil, b)
	if c.Stored {
		t.Fatal("repeating words should compress")
	}
	// 2+32 for the first + 15*(2+4) = 34+90 = 124 bits.
	if c.SizeBits != 124 {
		t.Errorf("SizeBits = %d, want 124", c.SizeBits)
	}
	got, err := decode(a, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatal("round trip failed")
	}
}

func TestCPackPartialMatch(t *testing.T) {
	a := NewCPack()
	b := make([]byte, BlockSize)
	for i := 0; i < 16; i++ {
		// Shared upper 3 bytes, varying low byte: mmmx after the first.
		binary.LittleEndian.PutUint32(b[i*4:], 0x11223300|uint32(i))
	}
	c := a.AppendCompress(nil, b)
	got, err := decode(a, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatal("round trip failed")
	}
	// 2+32 then 15*(4+4+8).
	if c.SizeBits != 34+15*16 {
		t.Errorf("SizeBits = %d, want %d", c.SizeBits, 34+15*16)
	}
}

func TestSC2UntrainedStoresRandom(t *testing.T) {
	s := NewSC2()
	rng := rand.New(rand.NewSource(9))
	b := make([]byte, BlockSize)
	rng.Read(b)
	c := s.AppendCompress(nil, b)
	if !c.Stored {
		t.Error("untrained SC2 on random data should store")
	}
}

func TestSC2TrainingImprovesRatio(t *testing.T) {
	// Blocks heavy in zero bytes: after training, zeros get short codes.
	blocks := make([][]byte, 32)
	rng := rand.New(rand.NewSource(3))
	for i := range blocks {
		b := make([]byte, BlockSize)
		for j := 0; j < 6; j++ {
			b[rng.Intn(BlockSize)] = byte(rng.Intn(256))
		}
		blocks[i] = b
	}
	s := NewSC2()
	s.Train(blocks)
	if !s.Trained() {
		t.Fatal("Train should mark trained")
	}
	var total int
	for _, b := range blocks {
		c := s.AppendCompress(nil, b)
		got, err := decode(s, c)
		if err != nil || !bytes.Equal(got, b) {
			t.Fatal("round trip failed")
		}
		total += c.SizeBytes()
	}
	ratio := float64(len(blocks)*BlockSize) / float64(total)
	if ratio < 2 {
		t.Errorf("trained SC2 ratio on sparse blocks = %.2f, want >= 2", ratio)
	}
}

func TestSC2DeepDecompLatency(t *testing.T) {
	s := NewSC2()
	if s.DecompLatency() != 8 {
		t.Errorf("default decomp latency = %d, want 8", s.DecompLatency())
	}
	s.DeepDecomp = true
	if s.DecompLatency() != 14 {
		t.Errorf("deep decomp latency = %d, want 14", s.DecompLatency())
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("New(bogus) should fail")
	}
	if len(All()) != 7 {
		t.Errorf("All() returned %d algorithms, want 7", len(All()))
	}
}

func TestNoneIsIdentity(t *testing.T) {
	n := NewNone()
	b := testBlocks(t)[4]
	c := n.AppendCompress(nil, b)
	if !c.Stored || c.SizeBytes() != BlockSize {
		t.Error("None must store raw")
	}
	got, err := decode(n, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Error("None round trip failed")
	}
}

func TestLatencyTable(t *testing.T) {
	// Pin the Table 1 / Table 2 latency parameters: simulator results
	// depend on them, so a change must be deliberate.
	cases := []struct {
		alg          Algorithm
		comp, decomp int
	}{
		{NewDelta(), 1, 3},
		{NewBDI(), 1, 3},
		{NewFPC(), 3, 5},
		{NewSFPC(), 2, 4},
		{NewCPack(), 8, 8},
		{NewSC2(), 6, 8},
		{NewNone(), 0, 0},
	}
	for _, c := range cases {
		if c.alg.CompLatency() != c.comp || c.alg.DecompLatency() != c.decomp {
			t.Errorf("%s latencies = %d/%d, want %d/%d",
				c.alg.Name(), c.alg.CompLatency(), c.alg.DecompLatency(), c.comp, c.decomp)
		}
	}
}

func TestCompressedHelpers(t *testing.T) {
	c := Compressed{SizeBits: 9}
	if c.SizeBytes() != 2 {
		t.Errorf("SizeBytes(9 bits) = %d, want 2", c.SizeBytes())
	}
	c = Compressed{SizeBits: 8 * 16}
	if c.Ratio() != 4 {
		t.Errorf("Ratio = %g, want 4", c.Ratio())
	}
}

func TestIncrementalDeltaMatchesWhole(t *testing.T) {
	// A compressible block fed in two fragments must merge to the same
	// size as whole-packet Δ1 compression.
	b := make([]byte, BlockSize)
	base := uint64(0x5500_0000_0000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i*3))
	}
	flits := words64(b)
	inc := NewIncrementalDelta()
	if !inc.Absorb(flits[:3]) {
		t.Fatal("first fragment should absorb")
	}
	if inc.Done() {
		t.Fatal("not done after partial absorb")
	}
	if !inc.Absorb(flits[3:]) {
		t.Fatal("second fragment should absorb")
	}
	if !inc.Done() {
		t.Fatal("should be done")
	}
	if got, want := inc.MergedSizeBits(), deltaSizeBits(1); got != want {
		t.Errorf("merged = %d bits, want %d", got, want)
	}
	// Bubble-padded cost must be at least the merged cost.
	if inc.FragmentPaddedBits() < inc.MergedSizeBits() {
		t.Error("padded size cannot be smaller than merged size")
	}
}

func TestIncrementalDeltaAbort(t *testing.T) {
	inc := NewIncrementalDelta()
	// Base then a flit that fits neither base at Δ1.
	if !inc.Absorb([]uint64{100}) {
		t.Fatal("base absorb failed")
	}
	if inc.Absorb([]uint64{1 << 40}) {
		t.Fatal("wild flit should abort")
	}
	if !inc.Failed() || inc.Done() {
		t.Error("engine should be failed, not done")
	}
	if inc.MergedSizeBits() != 8*BlockSize {
		t.Error("failed engine must report raw size")
	}
}

func TestIncrementalDeltaZeroBaseOnly(t *testing.T) {
	// All-small flits: every non-base flit fits the zero base.
	inc := NewIncrementalDelta()
	flits := []uint64{1 << 50, 1, 2, 3, 4, 5, 6, 7} // base is huge, rest near zero
	if !inc.Absorb(flits) {
		t.Fatal("should absorb via zero base")
	}
	if !inc.Done() {
		t.Fatal("should be done")
	}
}

func TestIncrementalDeltaOverfeedPanics(t *testing.T) {
	inc := NewIncrementalDelta()
	inc.Absorb(make([]uint64, 8))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overfeed")
		}
	}()
	inc.Absorb([]uint64{0})
}

// Property: incremental delta (when it succeeds) always reports the Δ1
// whole-packet size, and never succeeds on a block the whole-packet Δ1
// plan rejects.
func TestIncrementalDeltaConsistencyProperty(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var flits [8]uint64
		base := rng.Uint64()
		for i := range flits {
			switch rng.Intn(3) {
			case 0:
				flits[i] = base + uint64(rng.Intn(256)) - 128
			case 1:
				flits[i] = uint64(rng.Intn(128))
			default:
				flits[i] = rng.Uint64()
			}
		}
		flits[0] = base
		_, wholeOK := planDelta(&flits, 1)
		inc := NewIncrementalDelta()
		s := int(split)%7 + 1
		ok := inc.Absorb(flits[:s])
		if ok {
			ok = inc.Absorb(flits[s:])
		}
		if wholeOK != (ok && inc.Done()) {
			return false
		}
		if ok && inc.MergedSizeBits() != deltaSizeBits(1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFVCUntrainedStores(t *testing.T) {
	f := NewFVC()
	c := f.AppendCompress(nil, make([]byte, BlockSize))
	if !c.Stored {
		t.Error("untrained FVC should store")
	}
	if _, err := decode(f, Compressed{SizeBits: 16, Payload: []byte{0, 1}}); err == nil {
		t.Error("untrained decode should fail")
	}
}

func TestFVCFrequentValueHit(t *testing.T) {
	f := NewFVC()
	// Train on blocks full of zero words and 0xDEADBEEF.
	b := make([]byte, BlockSize)
	for i := 0; i < BlockSize; i += 8 {
		binary.LittleEndian.PutUint32(b[i:], 0xDEADBEEF)
	}
	f.Train([][]byte{b, make([]byte, BlockSize)})
	if !f.Trained() {
		t.Fatal("not trained")
	}
	c := f.AppendCompress(nil, b)
	// All 16 words in the table: 16*(1+5) = 96 bits.
	if c.SizeBits != 96 {
		t.Errorf("SizeBits = %d, want 96", c.SizeBits)
	}
	got, err := decode(f, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatal("round trip failed")
	}
}

func TestFVCMissEscapesRaw(t *testing.T) {
	f := NewFVC()
	f.Train([][]byte{make([]byte, BlockSize)})
	b := make([]byte, BlockSize)
	rng := rand.New(rand.NewSource(4))
	rng.Read(b)
	c := f.AppendCompress(nil, b)
	// 16*(1+32) = 528 bits > 512: stored.
	if !c.Stored {
		t.Errorf("all-miss block should be stored, got %d bits", c.SizeBits)
	}
	// Half zeros, half random: 8*6 + 8*33 = 312 bits.
	for i := 0; i < 32; i++ {
		b[i] = 0
	}
	c = f.AppendCompress(nil, b)
	if c.Stored || c.SizeBits != 312 {
		t.Errorf("half-hit block = %d bits (stored=%v), want 312", c.SizeBits, c.Stored)
	}
	got, err := decode(f, c)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatal("round trip failed")
	}
}

func TestFVCTableCapped(t *testing.T) {
	f := NewFVC()
	// Observe more distinct values than the table holds.
	for i := 0; i < 100; i++ {
		b := make([]byte, BlockSize)
		for j := 0; j < BlockSize; j += 4 {
			binary.LittleEndian.PutUint32(b[j:], uint32(i))
		}
		f.Observe(b)
	}
	f.Retrain()
	if len(f.values) != fvcTableSize {
		t.Errorf("table size = %d, want %d", len(f.values), fvcTableSize)
	}
}
