package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// addN records n occurrences of v: synthetic histograms with counts no
// short block stream could reach. Like observe, it marks v moved for
// the next topK.
func (h *valueHist) addN(v uint32, n uint64) {
	h.cnts[h.entry(v)] += n
	h.total += n
}

// retrainCheck feeds the same statistics to an SC2, an FVC and an
// independent frequency map, and checks the codecs' retrained tables
// against the full-sort oracles of reference_test.go.
type retrainCheck struct {
	freq map[uint32]uint64
	sc2  *SC2
	fvc  *FVC
}

func newRetrainCheck() *retrainCheck {
	return &retrainCheck{freq: make(map[uint32]uint64), sc2: NewSC2(), fvc: NewFVC()}
}

func (c *retrainCheck) observe(block []byte) {
	for i := 0; i+WordSize <= len(block); i += WordSize {
		c.freq[binary.LittleEndian.Uint32(block[i:])]++
	}
	c.sc2.Observe(block)
	c.fvc.Observe(block)
}

func (c *retrainCheck) add(v uint32, n uint64) {
	c.freq[v] += n
	c.sc2.hist.addN(v, n)
	c.fvc.hist.addN(v, n)
}

// retrainAndCheck retrains both codecs and compares every table.
func (c *retrainCheck) retrainAndCheck(t testing.TB, label string) {
	t.Helper()
	c.sc2.Retrain()
	c.fvc.Retrain()
	checkSC2Tables(t, label, c.sc2, c.freq, encodeTable|decodeTable)
	checkFVCTable(t, label, c.fvc, c.freq, encodeTable|decodeTable)
}

// checkSC2Tables compares s's values and code with the oracle's, and
// the lookup tables in built; a table not in built must not exist.
func checkSC2Tables(t testing.TB, label string, s *SC2, freq map[uint32]uint64, built tableSet) {
	t.Helper()
	values, codes, dec := refSC2Tables(freq)
	if !slices.Equal(s.values, values) {
		t.Fatalf("%s: sc2 values differ from the full-sort oracle (%d vs %d entries)", label, len(s.values), len(values))
	}
	if !slices.Equal(s.codes, codes) {
		t.Fatalf("%s: sc2 codes differ from the heap-Huffman oracle", label)
	}
	if built&decodeTable == 0 {
		if s.decoder.table != nil {
			t.Fatalf("%s: sc2 built a decoder on an encoding end", label)
		}
	} else if !reflect.DeepEqual(s.decoder, dec) {
		t.Fatalf("%s: sc2 decoder tables differ from the oracle", label)
	}
	if built&encodeTable == 0 {
		if s.lookupSlots != nil {
			t.Fatalf("%s: sc2 built an encode table on a decoding end", label)
		}
		return
	}
	occupied := 0
	for _, e := range s.lookupSlots {
		if uint32(e) != 0 {
			occupied++
		}
	}
	if occupied != len(values) {
		t.Fatalf("%s: sc2 encode table has %d entries, want %d", label, occupied, len(values))
	}
	for i, v := range values {
		if got, want := s.lookup(v), codes[i].bits<<5|uint32(codes[i].len); got != want {
			t.Fatalf("%s: sc2 encode table maps %#x to %#x, want %#x", label, v, got, want)
		}
	}
}

// checkFVCTable compares f's values with the oracle's, and its index
// when built holds the encode table; without it the index is empty.
func checkFVCTable(t testing.TB, label string, f *FVC, freq map[uint32]uint64, built tableSet) {
	t.Helper()
	want := refFVCValues(freq)
	if !slices.Equal(f.values, want) {
		t.Fatalf("%s: fvc values differ from the full-sort oracle", label)
	}
	if built&encodeTable == 0 {
		if f.indexSlot != [fvcSlots]uint8{} {
			t.Fatalf("%s: fvc built an index on a decoding end", label)
		}
		return
	}
	for i, v := range want {
		if got := f.index(v); got != i {
			t.Fatalf("%s: fvc index of %#x is %d, want %d", label, v, got, i)
		}
	}
	occupied := 0
	for _, e := range f.indexSlot {
		if e != 0 {
			occupied++
		}
	}
	if occupied != len(want) {
		t.Fatalf("%s: fvc index has %d entries, want %d", label, occupied, len(want))
	}
}

// TestRetrainMatchesOracle: SC² and FVC tables built by the histogram
// top-K and the in-place Huffman equal the full-sort / heap-Huffman
// definition byte for byte, which is what lets streams between old and
// new peers agree.
func TestRetrainMatchesOracle(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		newRetrainCheck().retrainAndCheck(t, "empty")
	})

	t.Run("random-streams", func(t *testing.T) {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := newRetrainCheck()
			alphabet := 1 + rng.Intn(20000)
			blk := make([]byte, BlockSize)
			for b := 1; b <= 400; b++ {
				for i := 0; i < BlockSize; i += WordSize {
					// Skewed draw: small values far more often.
					v := uint32(rng.Intn(1 + rng.Intn(alphabet)))
					binary.LittleEndian.PutUint32(blk[i:], v*0x9E3779B1)
				}
				c.observe(blk)
				if b%50 == 0 {
					c.retrainAndCheck(t, fmt.Sprintf("seed %d block %d", seed, b))
				}
			}
		}
	})

	t.Run("tie-heavy", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		c := newRetrainCheck()
		// Thousands of entries share the count at both cut points
		// (SC²'s 4095th and FVC's 32nd place), inserted in scrambled
		// value order so only the value tie-break orders them.
		for _, v := range rng.Perm(12000) {
			n := uint64(3)
			switch {
			case v < 2000:
				n = 7
			case v < 5000:
				n = 5
			}
			c.add(uint32(v)*0x85EBCA6B, n)
		}
		c.retrainAndCheck(t, "mixed ties")
		all := newRetrainCheck()
		for _, v := range rng.Perm(6000) {
			all.add(uint32(v), 1)
		}
		all.retrainAndCheck(t, "all tied")
	})

	t.Run("high-counts", func(t *testing.T) {
		// Both cuts fall among counts of 256 and more, with ties.
		rng := rand.New(rand.NewSource(11))
		c := newRetrainCheck()
		for _, v := range rng.Perm(5000) {
			c.add(uint32(v)*0x27D4EB2F, uint64(256+v%97)<<uint(v%3*8))
		}
		c.retrainAndCheck(t, "high counts")
	})

	t.Run("table-size-edges", func(t *testing.T) {
		for _, n := range []int{
			fvcTableSize - 1, fvcTableSize, fvcTableSize + 1,
			sc2TableSize - 2, sc2TableSize - 1, sc2TableSize,
		} {
			rng := rand.New(rand.NewSource(int64(n)))
			c := newRetrainCheck()
			for _, v := range rng.Perm(n) {
				c.add(uint32(v)<<8|0x5A, uint64(1+rng.Intn(4)))
			}
			c.retrainAndCheck(t, fmt.Sprintf("%d distinct", n))
		}
	})

	t.Run("length-limited", func(t *testing.T) {
		// Fibonacci counts give a Huffman tree ~45 deep, so the
		// sc2MaxCodeLen halving loop must run (asserted on the oracle).
		c := newRetrainCheck()
		a, b := uint64(1), uint64(1)
		var fib []uint64
		for i := 0; i < 45; i++ {
			fib = append(fib, a)
			c.add(uint32(0xF1B0000+i), a)
			a, b = b, a+b
		}
		if l := slices.Max(refBuildLengths(fib)); l <= sc2MaxCodeLen {
			t.Fatalf("fibonacci counts build depth %d, want > %d", l, sc2MaxCodeLen)
		}
		c.retrainAndCheck(t, "fibonacci")
		for v := 0; v < 3000; v++ {
			c.add(uint32(v), uint64(1+v%3))
		}
		c.retrainAndCheck(t, "fibonacci + tail")
	})

	t.Run("successive-retrains", func(t *testing.T) {
		// Retrains over one history as it moves a little at a time:
		// nothing counted, counts moved with the same values and lengths,
		// new lengths, values reordered and swapped.
		c := newRetrainCheck()
		for i := 0; i < 8; i++ {
			c.add(uint32(0xC0DE00+i), 100-uint64(i))
		}
		for _, step := range []struct {
			name string
			bump func()
		}{
			{"first retrain", func() {}},
			{"nothing counted", func() {}},
			{"counts moved, same values and lengths", func() { c.add(0xC0DE00, 1) }},
			{"same values, new lengths", func() { c.add(0xC0DE00, 1000) }},
			{"values reordered", func() { c.add(0xC0DE07, 6) }},
			{"values reordered again", func() { c.add(0xC0DE02, 2) }},
			{"values swapped, same lengths", func() { c.add(0xC0DE04, 2) }},
		} {
			step.bump()
			c.retrainAndCheck(t, step.name)
		}
	})

	t.Run("stateful-stream", func(t *testing.T) {
		// Every retrain of a long stream, through the Stateful adapter
		// that drives them in discod: each end holds the oracle's values
		// and code, the encoding end only the encode table and the
		// decoding end only the decode table.
		type end struct {
			sc2, fvc *Stateful
			sa       *SC2
			fa       *FVC
			built    tableSet
		}
		newEnd := func(built tableSet) *end {
			e := &end{sa: NewSC2(), fa: NewFVC(), built: built}
			e.sc2, e.fvc = NewStateful(e.sa), NewStateful(e.fa)
			return e
		}
		enc, dec := newEnd(encodeTable), newEnd(decodeTable)
		freq := make(map[uint32]uint64)
		retrains := 0
		for i, b := range streamBlocks(64 * retrainEvery) {
			for _, s := range []*Stateful{enc.sc2, enc.fvc} {
				f := s.Encode(b)
				d := dec.sc2
				if s == enc.fvc {
					d = dec.fvc
				}
				if got, err := d.Decode(f); err != nil || !bytes.Equal(got, b) {
					t.Fatalf("block %d: round trip failed: %v", i, err)
				}
			}
			for j := 0; j < BlockSize; j += WordSize {
				freq[binary.LittleEndian.Uint32(b[j:])]++
			}
			if (i+1)%retrainEvery == 0 {
				label := fmt.Sprintf("retrain at block %d", i+1)
				for _, e := range []*end{enc, dec} {
					checkSC2Tables(t, label, e.sa, freq, e.built)
					checkFVCTable(t, label, e.fa, freq, e.built)
				}
				retrains++
			}
		}
		if retrains != 64 {
			t.Fatalf("checked %d retrains, want 64", retrains)
		}
		// A side first used after a retrain builds its table from the
		// current code.
		enc.sc2.need(decodeTable)
		enc.fvc.need(decodeTable)
		dec.sc2.need(encodeTable)
		dec.fvc.need(encodeTable)
		for _, e := range []*end{enc, dec} {
			checkSC2Tables(t, "after the other side's first use", e.sa, freq, encodeTable|decodeTable)
			checkFVCTable(t, "after the other side's first use", e.fa, freq, encodeTable|decodeTable)
		}
	})
}

// TestBuildLengthsMatchesHeap pins the in-place Huffman construction to
// the container/heap one on raw weight vectors ranked as SC²'s are —
// every weight but the last non-increasing, the last (the escape) any
// weight — ties included.
func TestBuildLengthsMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		freq := make([]uint64, rng.Intn(300))
		maxW := 1 + rng.Intn(1<<uint(rng.Intn(20)))
		for i := range freq {
			freq[i] = uint64(rng.Intn(maxW))
		}
		if len(freq) > 1 {
			ranked := freq[:len(freq)-1]
			slices.Sort(ranked)
			slices.Reverse(ranked)
		}
		if got, want := buildLengths(freq), refBuildLengths(freq); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d symbols): lengths %v, want %v", trial, len(freq), got, want)
		}
		lens := huffLengths(freq, sc2MaxCodeLen)
		if got, want := canonicalAssign(nil, lens), refCanonicalAssign(lens); !slices.Equal(got, want) {
			t.Fatalf("trial %d: canonical codes differ", trial)
		}
	}
}

// TestHuffDecodeMatchesSearch: the table decoder finds the codeword
// the length-first search finds — the same symbol, the same bits
// consumed — and fails where it fails, at every bit offset of every
// byte prefix of its input: random bytes, and concatenated codewords of
// symbols drawn uniformly (so the long codes turn up), cut short at
// every byte. The codes are a trained stream's, the one-symbol code of
// an empty histogram, and a Fibonacci code limited to sc2MaxCodeLen
// bits.
func TestHuffDecodeMatchesSearch(t *testing.T) {
	stream := NewSC2()
	stream.Train(streamBlocks(2 * retrainEvery))
	oneSym := NewSC2()
	oneSym.Retrain()
	fib := NewSC2()
	a, b := uint64(1), uint64(1)
	for i := 0; i < 45; i++ {
		fib.hist.addN(uint32(0xF1B0000+i), a)
		a, b = b, a+b
	}
	fib.Retrain()
	if l := slices.MaxFunc(fib.codes, func(x, y huffCode) int { return x.len - y.len }).len; l != sc2MaxCodeLen {
		t.Fatalf("fibonacci code's longest codeword has %d bits, want %d", l, sc2MaxCodeLen)
	}
	if len(oneSym.codes) != 1 {
		t.Fatalf("empty histogram built %d symbols, want 1", len(oneSym.codes))
	}
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		s    *SC2
	}{{"stream", stream}, {"one-symbol", oneSym}, {"length-limited", fib}} {
		var inputs [][]byte
		for i := 0; i < 40; i++ {
			in := make([]byte, 1+rng.Intn(12))
			rng.Read(in)
			inputs = append(inputs, in)
			var w bitWriter
			for k := 0; k < 6; k++ {
				c := tc.s.codes[rng.Intn(len(tc.s.codes))]
				w.writeBits(uint64(c.bits), c.len)
			}
			inputs = append(inputs, w.bytes())
		}
		d := &tc.s.decoder
		for _, in := range inputs {
			for cut := 0; cut <= len(in); cut++ {
				buf := in[:cut]
				for pos := 0; pos <= 8*len(buf); pos++ {
					r := bitReader{buf: buf, pos: pos}
					sym, n := d.decode(r.peek())
					ok := n != 0 && n <= r.remaining()
					wantSym, wantN, wantOK := refDecode(d, &refBitReader{buf: buf, pos: pos})
					if ok != wantOK || ok && (sym != wantSym || n != wantN) {
						t.Fatalf("%s: %x at bit %d: decode (%d, %d bits, %v), search (%d, %d bits, %v)",
							tc.name, buf, pos, sym, n, ok, wantSym, wantN, wantOK)
					}
				}
			}
		}
	}
}

// FuzzRetrainEquivalence: arbitrary word sequences, retrained at an
// arbitrary cadence, give tables identical to the oracles. In narrow
// mode every input byte is one word, so a short input already piles up
// counts and ties across a 256-value alphabet.
func FuzzRetrainEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(1), false)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"), uint8(2), true)
	f.Add(make([]byte, 3*BlockSize+5), uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, every uint8, narrow bool) {
		if narrow {
			wide := make([]byte, 0, WordSize*len(data))
			for _, b := range data {
				wide = binary.LittleEndian.AppendUint32(wide, uint32(b)*0x01000193)
			}
			data = wide
		}
		c := newRetrainCheck()
		cadence := 1 + int(every%8)
		for b := 0; b*BlockSize < len(data); b++ {
			c.observe(data[b*BlockSize : min((b+1)*BlockSize, len(data))])
			if (b+1)%cadence == 0 {
				c.retrainAndCheck(t, fmt.Sprintf("block %d", b))
			}
		}
		c.retrainAndCheck(t, "final")
	})
}

// bumpOp is one FuzzRetrainBumps operation, encoded as its 4 input
// bytes: kind, a little-endian uint16 x, and y.
func bumpOp(kind byte, x uint16, y byte) []byte {
	return []byte{kind, byte(x), byte(x >> 8), y}
}

// FuzzRetrainBumps drives the incremental ranking with synthetic counts
// over an 8192-value alphabet, checking every retrain against the
// oracles. Each of the first 24 4-byte ops (kind, x, y) is, by kind%4:
//
//	0: retrain
//	1: bump value x by (y+1) << ((kind>>2)%32), up to 2^39 at once
//	2: add 1+(kind>>2)%4 to each of the 32*(y+1) values from x on
//	3: retrain twice, with nothing counted in between
//
// so moved entries overtake earlier winners, tie with them at the K-th
// place, and push the distinct count across K.
func FuzzRetrainBumps(f *testing.F) {
	retrain, twice := bumpOp(0, 0, 0), bumpOp(3, 0, 0)
	spread := func(x uint16, values int, n byte) []byte {
		return bumpOp(2|(n-1)<<2, x, byte(values/32-1))
	}
	// A value far down the ranking overtakes every earlier winner.
	f.Add(slices.Concat(spread(0, 64, 1), retrain, bumpOp(1|10<<2, 63, 255), retrain))
	// New values tie at the cut with earlier winners, below leaders that
	// did not move (FVC, then SC²): the lower values win the last places.
	f.Add(slices.Concat(spread(0, 64, 1), bumpOp(1, 0, 2), bumpOp(1, 1, 2), retrain, spread(64, 32, 1), retrain))
	f.Add(slices.Concat(spread(0, 4192, 2), retrain, spread(4192, 256, 2), spread(0, 96, 1), retrain))
	// The distinct count crosses K (FVC's 32, then SC²'s 4095).
	f.Add(slices.Concat(spread(0, 32, 1), retrain, spread(32, 32, 1), retrain))
	f.Add(slices.Concat(spread(0, 4064, 1), retrain, spread(4064, 32, 3), retrain))
	// Back-to-back retrains, before and after a bump.
	f.Add(slices.Concat(spread(0, 96, 1), twice, bumpOp(1, 5, 7), twice, retrain))
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 4*24)] // each retrain checks against full sorts
		val := func(i int) uint32 { return uint32(i%8192) * 0x9E3779B1 }
		c := newRetrainCheck()
		for o := 0; o+4 <= len(ops); o += 4 {
			kind, x, y := ops[o], int(binary.LittleEndian.Uint16(ops[o+1:])), int(ops[o+3])
			label := fmt.Sprintf("op %d", o/4)
			switch kind % 4 {
			case 0:
				c.retrainAndCheck(t, label)
			case 1:
				c.add(val(x), uint64(y+1)<<((kind>>2)%32))
			case 2:
				for i := range 32 * (y + 1) {
					c.add(val(x+i), uint64(1+(kind>>2)%4))
				}
			case 3:
				c.retrainAndCheck(t, label)
				c.retrainAndCheck(t, label+" again")
			}
		}
		c.retrainAndCheck(t, "final")
	})
}

// TestRetrainAllocs: a retrain over a histogram that has gained no
// distinct value since the previous retrain reuses every table and
// scratch slice, so it allocates nothing — whether or not the counts
// moved in between.
func TestRetrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	blocks := streamBlocks(400)
	for _, alg := range []Trainable{NewSC2(), NewFVC()} {
		for _, b := range blocks {
			alg.Observe(b)
		}
		alg.Retrain()
		if a := testing.AllocsPerRun(1, alg.Retrain); a != 0 {
			t.Errorf("%T: Retrain over an unchanged histogram made %.0f allocations, want 0", alg, a)
		}
		recount := testing.AllocsPerRun(1, func() {
			for _, b := range blocks[:100] {
				alg.Observe(b)
			}
			alg.Retrain()
		})
		if recount != 0 {
			t.Errorf("%T: Observe of known words plus Retrain made %.0f allocations, want 0", alg, recount)
		}
	}
}
