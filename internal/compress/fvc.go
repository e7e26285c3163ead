package compress

import "encoding/binary"

// FVC implements frequent-value compression, the scheme the paper's NoC
// compression baselines build on (references [7][8]: Jin et al., MICRO
// 2008; Zhou et al., ASP-DAC 2009): a small table of the most frequent
// 32-bit values, maintained from observed traffic, encodes a matching
// word as a 1-bit flag plus a table index, and a non-matching word as the
// flag plus the raw word. Unlike SC² there is no entropy coding — the
// index is fixed-width — so the hardware is tiny and fast, at the cost of
// compression ratio.
//
// The table adapts online: Observe folds traffic in, Retrain rebuilds the
// table (the hardware variants age entries continuously; periodic rebuild
// is the deterministic equivalent).
type FVC struct {
	values []uint32
	// Open-addressing value -> table-index lookup (SC²'s encode-table
	// scheme at a fixed size): 2×fvcTableSize slots keep the load at
	// ≤0.5. indexSlot[i] holds the value's table index plus one, so 0
	// marks a free slot; indexKeys[i] is only meaningful when occupied.
	indexKeys [fvcSlots]uint32
	indexSlot [fvcSlots]uint8
	hist      valueHist
	trained   bool
}

// fvcTableSize is the frequent-value table depth (32 entries, 5-bit
// index, as in the MICRO'08 design space).
const fvcTableSize = 32

// fvcIndexBits is the per-match index width.
const fvcIndexBits = 5

// fvcSlotBits sizes the lookup: 1<<fvcSlotBits = 2×fvcTableSize slots.
const fvcSlotBits = fvcIndexBits + 1

// fvcSlots is the lookup's slot count.
const fvcSlots = 1 << fvcSlotBits

// NewFVC returns an untrained frequent-value compressor.
func NewFVC() *FVC {
	return &FVC{}
}

// Name implements Algorithm.
func (*FVC) Name() string { return "fvc" }

// CompLatency implements Algorithm (single table lookup per word pair).
func (*FVC) CompLatency() int { return 2 }

// DecompLatency implements Algorithm (index lookup).
func (*FVC) DecompLatency() int { return 2 }

// Observe folds one block into the value statistics.
func (f *FVC) Observe(block []byte) { f.hist.observe(block) }

// Retrain rebuilds the frequent-value table from the statistics: the
// fvcTableSize most frequent values, ties to the lower value. Only the
// values counted since the last Retrain are re-ranked against the
// previous table (valueHist.topK), so the cost follows what moved, not
// the distinct values observed.
func (f *FVC) Retrain() {
	sc := retrainPool.Get().(*retrainScratch)
	defer retrainPool.Put(sc)
	top := f.hist.topK(fvcTableSize, sc)
	f.values = f.values[:0]
	f.indexSlot = [fvcSlots]uint8{}
	for i, e := range top {
		f.values = append(f.values, e.v)
		slot := (e.v * sc2HashMul) >> (32 - fvcSlotBits)
		for f.indexSlot[slot] != 0 {
			slot = (slot + 1) % fvcSlots
		}
		f.indexKeys[slot] = e.v
		f.indexSlot[slot] = uint8(i + 1)
	}
	f.trained = true
}

// index returns word's frequent-value table index, or -1 when the
// table does not hold it.
func (f *FVC) index(word uint32) int {
	slot := (word * sc2HashMul) >> (32 - fvcSlotBits)
	for {
		if e := f.indexSlot[slot]; e == 0 || f.indexKeys[slot] == word {
			return int(e) - 1
		}
		slot = (slot + 1) % fvcSlots
	}
}

// Train is Observe over samples followed by Retrain.
func (f *FVC) Train(samples [][]byte) {
	for _, b := range samples {
		f.Observe(b)
	}
	f.Retrain()
}

// Trained reports whether the table has been built.
func (f *FVC) Trained() bool { return f.trained }

// AppendCompress implements Algorithm.
func (f *FVC) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	if !f.trained {
		return appendStored(f.Name(), dst, block)
	}
	var w bitAcc
	for i := 0; i < BlockSize; i += WordSize {
		word := binary.LittleEndian.Uint32(block[i:])
		if idx := f.index(word); idx >= 0 {
			w.emit(1<<fvcIndexBits|uint64(idx), 1+fvcIndexBits)
		} else {
			w.emit(uint64(word), 1+32)
		}
	}
	if w.bits() >= 8*BlockSize {
		return appendStored(f.Name(), dst, block)
	}
	return Compressed{Alg: f.Name(), SizeBits: w.bits(), Payload: w.appendTo(dst)}
}

// DecompressInto implements Algorithm.
func (f *FVC) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	if !f.trained {
		return ErrCorrupt
	}
	r := bitReader{buf: c.Payload}
	for i := 0; i < BlockSize/WordSize; i++ {
		flag, ok := r.readBit()
		if !ok {
			return ErrCorrupt
		}
		if flag == 1 {
			idx, ok := r.readBits(fvcIndexBits)
			if !ok || int(idx) >= len(f.values) {
				return ErrCorrupt
			}
			putWord(out, i, f.values[idx])
			continue
		}
		v, ok := r.readBits(32)
		if !ok {
			return ErrCorrupt
		}
		putWord(out, i, uint32(v))
	}
	return nil
}
