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
	values   []uint32
	valueIdx map[uint32]int
	hist     valueHist
	trained  bool
}

// fvcTableSize is the frequent-value table depth (32 entries, 5-bit
// index, as in the MICRO'08 design space).
const fvcTableSize = 32

// fvcIndexBits is the per-match index width.
const fvcIndexBits = 5

// NewFVC returns an untrained frequent-value compressor.
func NewFVC() *FVC {
	return &FVC{valueIdx: make(map[uint32]int)}
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
// fvcTableSize most frequent values, ties to the lower value, in
// O(distinct values).
func (f *FVC) Retrain() {
	top := f.hist.topK(fvcTableSize)
	f.values = f.values[:0]
	f.valueIdx = make(map[uint32]int, len(top))
	for i, e := range top {
		f.values = append(f.values, e.v)
		f.valueIdx[e.v] = i
	}
	f.trained = true
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

// Compress implements Algorithm.
func (f *FVC) Compress(block []byte) Compressed {
	checkBlock(block)
	if !f.trained {
		return stored(f.Name(), block)
	}
	var w bitWriter
	for i := 0; i < BlockSize; i += WordSize {
		word := binary.LittleEndian.Uint32(block[i:])
		if idx, ok := f.valueIdx[word]; ok {
			w.writeBits(1, 1)
			w.writeBits(uint64(idx), fvcIndexBits)
		} else {
			w.writeBits(0, 1)
			w.writeBits(uint64(word), 32)
		}
	}
	if w.bits() >= 8*BlockSize {
		return stored(f.Name(), block)
	}
	return Compressed{Alg: f.Name(), SizeBits: w.bits(), Payload: w.bytes()}
}

// Decompress implements Algorithm.
func (f *FVC) Decompress(c Compressed) ([]byte, error) {
	if c.Stored {
		return storedRoundTrip(c)
	}
	if !f.trained {
		return nil, ErrCorrupt
	}
	r := bitReader{buf: c.Payload}
	out := make([]byte, 0, BlockSize)
	for i := 0; i < BlockSize/WordSize; i++ {
		flag, ok := r.readBit()
		if !ok {
			return nil, ErrCorrupt
		}
		if flag == 1 {
			idx, ok := r.readBits(fvcIndexBits)
			if !ok || int(idx) >= len(f.values) {
				return nil, ErrCorrupt
			}
			out = appendWord(out, f.values[idx])
			continue
		}
		v, ok := r.readBits(32)
		if !ok {
			return nil, ErrCorrupt
		}
		out = appendWord(out, uint32(v))
	}
	return out, nil
}
