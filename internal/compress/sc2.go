package compress

import (
	"cmp"
	"slices"
)

// SC2 stands in for the SC² statistical compression cache (Arelakis &
// Stenström, ISCA 2014, the paper's reference [3]). Value statistics are
// sampled from the running workload, a canonical Huffman code is built
// over the most frequent 32-bit values plus an escape symbol, and blocks
// are encoded word by word with that shared code — infrequent words are
// emitted as escape + raw 32 bits. The code table lives in dedicated
// hardware shared by all blocks, so per-block metadata is tiny; the price
// is the longest de/compression latency of Table 1 (comp 6 cycles,
// decomp 8–14 cycles) and the need for a training phase.
//
// An untrained SC2 has an empty value table and therefore stores blocks
// raw; call Train (or Observe + Retrain) before measuring ratios,
// mirroring the sampling phase of the real design.
type SC2 struct {
	values []uint32   // frequent-value table (escape excluded)
	codes  []huffCode // per symbol; escape is the last entry
	hist   valueHist  // accumulated sample statistics
	// Open-addressing value -> packed-codeword table (kernel hot path):
	// power-of-two slot count at ≤0.5 load, multiplicative hash to the
	// top bits, linear probing. lookupCodes[i] packs the canonical
	// codeword as bits<<5|len (len ≥ 1, so 0 marks an empty slot);
	// lookupKeys[i] is only meaningful when its code slot is occupied.
	lookupKeys  []uint32
	lookupCodes []uint32
	lookupShift uint32
	decoder     huffDecoder
	trained     bool
	// DeepDecomp selects the 14-cycle worst-case decompression latency of
	// Table 1 instead of the common-case 8 cycles.
	DeepDecomp bool
}

// huffCode is one canonical Huffman codeword.
type huffCode struct {
	bits uint32
	len  int
}

// sc2TableSize is the frequent-value table capacity (4095 values + escape
// fit a 12-bit symbol space; the SC² hardware proposal uses multi-thousand
// entry code tables).
const sc2TableSize = 4096

// sc2MaxCodeLen caps codeword length, as the hardware decode pipeline does.
const sc2MaxCodeLen = 20

// sc2HeaderBits is the per-block metadata (compressed-size field consulted
// by the segment allocator).
const sc2HeaderBits = 8

// NewSC2 returns an untrained SC² compressor.
func NewSC2() *SC2 {
	return &SC2{}
}

// Name implements Algorithm.
func (*SC2) Name() string { return "sc2" }

// CompLatency implements Algorithm (Table 1: 6 cycles).
func (*SC2) CompLatency() int { return 6 }

// DecompLatency implements Algorithm (Table 1: 8 or 14 cycles).
func (s *SC2) DecompLatency() int {
	if s.DeepDecomp {
		return 14
	}
	return 8
}

// Observe folds one block into the sampling statistics without
// compressing it. Call Retrain afterwards to rebuild the code.
func (s *SC2) Observe(block []byte) { s.hist.observe(block) }

// Retrain rebuilds the value table and canonical Huffman code from the
// accumulated statistics: the sc2TableSize-1 most frequent values (ties
// to the lower value) plus the escape. It costs O(distinct values) for
// the selection plus O(table size · log table size) for the code build.
func (s *SC2) Retrain() {
	sc := retrainPool.Get().(*retrainScratch)
	defer retrainPool.Put(sc)
	top := s.hist.topK(sc2TableSize-1, sc)
	s.values = s.values[:0]
	freqs := resize(sc.freqs, len(top)+1)
	sc.freqs = freqs
	var covered uint64
	for i, e := range top {
		s.values = append(s.values, e.v)
		freqs[i] = e.n + 1
		covered += e.n
	}
	freqs[len(top)] = s.hist.total - covered + 1 // escape
	lens := sc.huff.huffLengths(freqs, sc2MaxCodeLen)
	s.codes = sc.huff.canonicalAssign(s.codes, lens)
	s.decoder.build(s.codes)
	s.buildLookup()
	s.trained = true
}

// sc2HashMul is the multiplicative-hash constant (2^32/φ, Knuth).
const sc2HashMul = 0x9E3779B1

// buildLookup (re)builds the open-addressing encode table from the
// trained value set and codeword assignment.
func (s *SC2) buildLookup() {
	size := 16
	for size < 2*len(s.values) {
		size <<= 1
	}
	log2 := 0
	for 1<<uint(log2) < size {
		log2++
	}
	if len(s.lookupCodes) == size {
		clear(s.lookupCodes) // a zero code marks a free slot; keys need no reset
	} else {
		s.lookupKeys = make([]uint32, size)
		s.lookupCodes = make([]uint32, size)
	}
	s.lookupShift = uint32(32 - log2)
	mask := uint32(size - 1)
	for i, v := range s.values {
		c := s.codes[i]
		packed := uint32(c.bits)<<5 | uint32(c.len)
		slot := (v * sc2HashMul) >> s.lookupShift
		for s.lookupCodes[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.lookupKeys[slot] = v
		s.lookupCodes[slot] = packed
	}
}

// Train is Observe over a sample set followed by Retrain.
func (s *SC2) Train(samples [][]byte) {
	for _, b := range samples {
		s.Observe(b)
	}
	s.Retrain()
}

// Trained reports whether a code has been built from real statistics.
func (s *SC2) Trained() bool { return s.trained }

// escapeSym is the escape's symbol index.
func (s *SC2) escapeSym() int { return len(s.values) }

// lookup returns the packed codeword for a table value, 0 on a miss
// (escape). One multiply-hash plus a near-always-length-1 linear probe
// replaces the old map[uint32]int hot-path lookup.
func (s *SC2) lookup(word uint32) uint32 {
	keys, codes := s.lookupKeys, s.lookupCodes
	mask := uint32(len(codes) - 1)
	i := (word * sc2HashMul) >> s.lookupShift
	for {
		c := codes[i]
		if c == 0 || keys[i] == word {
			return c
		}
		i = (i + 1) & mask
	}
}

// AppendCompress implements Algorithm. The word-parallel kernel path: one
// block load, one open-addressed table lookup per word, batched MSB-
// first emission through a register accumulator. Bit format and the
// per-word stored bail-out are unchanged from the scalar encoder (the
// written bits grow monotonically, so checking after each word's
// emission is exactly the old per-word check).
func (s *SC2) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	if !s.trained {
		return appendStored(s.Name(), dst, block)
	}
	ws := words32(block)
	esc := s.codes[s.escapeSym()]
	escBits, escLen := uint64(esc.bits), esc.len
	var a bitAcc
	for _, word := range ws {
		if c := s.lookup(word); c != 0 {
			a.emit(uint64(c>>5), int(c&31))
		} else {
			a.emit(escBits, escLen)
			a.emit(uint64(word), 32)
		}
		if a.bits()+sc2HeaderBits >= 8*BlockSize {
			return appendStored(s.Name(), dst, block)
		}
	}
	return Compressed{Alg: s.Name(), SizeBits: a.bits() + sc2HeaderBits, Payload: a.appendTo(dst)}
}

// DecompressInto implements Algorithm.
func (s *SC2) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	if !s.trained {
		return ErrCorrupt
	}
	r := bitReader{buf: c.Payload}
	for i := 0; i < BlockSize/WordSize; i++ {
		sym, ok := s.decoder.decode(&r)
		if !ok {
			return ErrCorrupt
		}
		if sym == s.escapeSym() {
			v, ok := r.readBits(32)
			if !ok {
				return ErrCorrupt
			}
			putWord(out, i, uint32(v))
			continue
		}
		if sym > len(s.values) {
			return ErrCorrupt
		}
		putWord(out, i, s.values[sym])
	}
	return nil
}

// --- canonical Huffman machinery -------------------------------------------

// resize returns s with length n, reusing its backing array when it has
// room. The contents are unspecified: callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// huffScratch is the Huffman build's working memory, part of the pooled
// retrainScratch: a rebuild whose symbol count it has served before
// allocates nothing. Returned slices alias it until the next call.
type huffScratch struct {
	f      []uint64
	lens   []int
	leaves []int32
	merged []uint64
	parent []int32
	depth  []int
	start  []int
	order  []int
}

// huffLengths computes code lengths for all symbols, iteratively
// flattening the frequency distribution until the longest code fits in
// maxLen (the standard hardware-friendly length-limiting trick).
func (h *huffScratch) huffLengths(freq []uint64, maxLen int) []int {
	f := resize(h.f, len(freq))
	h.f = f
	copy(f, freq)
	for {
		lens := h.buildLengths(f)
		maxSeen := 0
		for _, l := range lens {
			if l > maxSeen {
				maxSeen = l
			}
		}
		if maxSeen <= maxLen {
			return lens
		}
		for i := range f {
			f[i] = f[i]/2 + 1
		}
	}
}

// buildLengths runs plain Huffman over the symbol set with the
// two-queue method: leaves sorted by (weight, symbol) in one queue,
// merged nodes in creation order in the other. Merged weights never
// decrease, so both queues stay ordered by (weight, node index) — leaf
// i is node i, the j-th merge is node n+j — and taking the smaller
// front twice per merge pops nodes in exactly the order a priority
// queue keyed on (weight, node index) would. The merge tree, and with
// it every length, is that of the textbook heap construction.
func (h *huffScratch) buildLengths(freq []uint64) []int {
	n := len(freq)
	lens := resize(h.lens, n)
	h.lens = lens
	if n == 0 {
		return lens
	}
	if n == 1 {
		lens[0] = 1
		return lens
	}
	leaves := resize(h.leaves, n)
	h.leaves = leaves
	for i := range leaves {
		leaves[i] = int32(i)
	}
	slices.SortFunc(leaves, func(a, b int32) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	merged := resize(h.merged, n-1)   // weight of node n+j
	parent := resize(h.parent, 2*n-1) // node -> merge that consumed it
	h.merged, h.parent = merged, parent
	li := 0 // leaf queue front
	mi := 0 // merged queue front
	pop := func(j int) int32 {
		if li < n && (mi == j || freq[leaves[li]] <= merged[mi]) {
			li++
			return leaves[li-1]
		}
		mi++
		return int32(n + mi - 1)
	}
	weight := func(node int32) uint64 {
		if int(node) < n {
			return freq[node]
		}
		return merged[int(node)-n]
	}
	for j := 0; j < n-1; j++ {
		a, b := pop(j), pop(j)
		merged[j] = weight(a) + weight(b)
		parent[a], parent[b] = int32(n+j), int32(n+j)
	}
	// A node is merged before its parent, so walking merges newest
	// first (the root is the last) sees every parent's depth first.
	depth := resize(h.depth, n-1)
	h.depth = depth
	depth[n-2] = 0 // the root
	for j := n - 3; j >= 0; j-- {
		depth[j] = depth[int(parent[n+j])-n] + 1
	}
	for i := range lens {
		lens[i] = depth[int(parent[i])-n] + 1
	}
	return lens
}

// canonicalAssign turns code lengths into canonical codewords, written
// over codes' backing array when it has room: symbols take consecutive
// codes in (length, symbol) order, each length step shifting the
// running code left. A counting pass over the lengths yields that order
// without a comparison sort.
func (h *huffScratch) canonicalAssign(codes []huffCode, lens []int) []huffCode {
	maxLen := 0
	for _, l := range lens {
		maxLen = max(maxLen, l)
	}
	start := resize(h.start, maxLen+2) // start[l] = first slot of length l
	h.start = start
	clear(start)
	for _, l := range lens {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := resize(h.order, len(lens))
	h.order = order
	for sym, l := range lens {
		order[start[l]] = sym
		start[l]++
	}
	codes = resize(codes, len(lens))
	code := uint32(0)
	prevLen := 0
	for _, sym := range order {
		l := lens[sym]
		if prevLen != 0 {
			code = (code + 1) << uint(l-prevLen)
		}
		codes[sym] = huffCode{bits: code, len: l}
		prevLen = l
	}
	return codes
}

// huffDecoder decodes canonical codes by length-first search.
type huffDecoder struct {
	firstCode [sc2MaxCodeLen + 1]uint32
	firstIdx  [sc2MaxCodeLen + 1]int
	count     [sc2MaxCodeLen + 1]int
	symbols   []int
}

// build derives decode tables from a canonical codeword set (as
// canonicalAssign produces): within one length, codes ascend with the
// symbol index, so bucketing symbols by length in index order lists
// them by codeword. Lengths outside 1..sc2MaxCodeLen are not decodable
// and are left out.
func (d *huffDecoder) build(codes []huffCode) {
	symbols := d.symbols
	*d = huffDecoder{}
	for _, c := range codes {
		if c.len >= 1 && c.len <= sc2MaxCodeLen {
			d.count[c.len]++
		}
	}
	next := 0
	for l := 1; l <= sc2MaxCodeLen; l++ {
		d.firstIdx[l] = next
		next += d.count[l]
	}
	d.symbols = resize(symbols, next)
	slot := d.firstIdx
	for sym, c := range codes {
		l := c.len
		if l < 1 || l > sc2MaxCodeLen {
			continue
		}
		if slot[l] == d.firstIdx[l] {
			d.firstCode[l] = c.bits
		}
		d.symbols[slot[l]] = sym
		slot[l]++
	}
}

// decode consumes one codeword from r.
func (d *huffDecoder) decode(r *bitReader) (int, bool) {
	var code uint32
	for l := 1; l <= sc2MaxCodeLen; l++ {
		b, ok := r.readBit()
		if !ok {
			return 0, false
		}
		code = code<<1 | uint32(b)
		if d.count[l] > 0 {
			off := int(code) - int(d.firstCode[l])
			if off >= 0 && off < d.count[l] {
				return d.symbols[d.firstIdx[l]+off], true
			}
		}
	}
	return 0, false
}
