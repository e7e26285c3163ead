package compress

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
	// top bits, linear probing. A slot packs the value in its high half
	// and the canonical codeword as bits<<5|len in its low half (len ≥
	// 1, so a zero low half marks an empty slot): one load per probe.
	lookupSlots []uint64
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
// to the lower value) plus the escape. The selection re-ranks only the
// values counted since the last Retrain against the previous table
// (valueHist.topK), and the code build is linear in the table size: no
// part of it grows with the distinct values observed. Retrain builds
// both the encode and the decode table; a stream end builds only the
// one it uses (Stateful).
func (s *SC2) Retrain() { s.retrain(encodeTable | decodeTable) }

// retrain rebuilds the value table and the code, then the lookup
// tables in t.
func (s *SC2) retrain(t tableSet) {
	sc := retrainPool.Get().(*retrainScratch)
	defer retrainPool.Put(sc)
	top := s.hist.topK(sc2TableSize-1, sc)
	s.values = resize(s.values, len(top))
	freqs := resize(sc.freqs, len(top)+1)
	sc.freqs = freqs
	var covered uint64
	for i, e := range top {
		s.values[i] = e.v
		freqs[i] = e.n + 1
		covered += e.n
	}
	freqs[len(top)] = s.hist.total - covered + 1 // escape
	lens := sc.huff.huffLengths(freqs, sc2MaxCodeLen)
	s.codes = canonicalAssign(s.codes, lens)
	s.trained = true
	s.build(t)
}

// build derives the lookup tables in t from the trained values and
// code: the encoder's open-addressing table, the decoder's tables.
func (s *SC2) build(t tableSet) {
	if !s.trained {
		return
	}
	if t&encodeTable != 0 {
		s.buildLookup()
	}
	if t&decodeTable != 0 {
		s.decoder.build(s.codes)
	}
}

// reset returns s to NewSC2's state, keeping the memory of the
// histogram and of every table for the next stream to refill.
func (s *SC2) reset() {
	s.hist.reset()
	s.values, s.codes = s.values[:0], s.codes[:0]
	s.trained = false
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
	s.lookupSlots = resize(s.lookupSlots, size)
	clear(s.lookupSlots)
	s.lookupShift = uint32(32 - log2)
	mask := uint32(size - 1)
	for i, v := range s.values {
		c := s.codes[i]
		slot := (v * sc2HashMul) >> s.lookupShift
		for s.lookupSlots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.lookupSlots[slot] = uint64(v)<<32 | uint64(c.bits)<<5 | uint64(c.len)
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
	slots := s.lookupSlots
	mask := uint32(len(slots) - 1)
	i := (word * sc2HashMul) >> s.lookupShift
	for {
		e := slots[i]
		if uint32(e) == 0 || uint32(e>>32) == word {
			return uint32(e)
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

// DecompressInto implements Algorithm. Each word takes one window of
// the payload: its codeword, and for an escape the raw word after it.
func (s *SC2) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	if !s.trained {
		return ErrCorrupt
	}
	r := bitReader{buf: c.Payload}
	esc := s.escapeSym()
	for i := 0; i < BlockSize/WordSize; i++ {
		w := r.peek()
		sym, n := s.decoder.decode(w)
		if n == 0 || n > r.remaining() {
			return ErrCorrupt
		}
		if sym == esc {
			// n ≤ sc2MaxCodeLen, so the raw word lies within the
			// window's 57 valid bits.
			if n+32 > r.remaining() {
				return ErrCorrupt
			}
			putWord(out, i, uint32(w<<uint(n)>>32))
			n += 32
		} else {
			putWord(out, i, s.values[sym])
		}
		r.pos += n
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
	tree   []uint64
}

// huffLengths computes code lengths for all symbols, iteratively
// flattening the frequency distribution until the longest code fits in
// maxLen (the standard hardware-friendly length-limiting trick). The
// weights must be ranked as buildLengths requires; the flattening,
// f/2+1, keeps them so.
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

// buildLengths runs plain Huffman over the symbol set, whose weights
// must be ranked as SC²'s are: every symbol but the last (the escape)
// in non-increasing weight order, the last of any weight.
//
// The leaves go in (weight, symbol) order (leafOrder), and the lengths
// come from Moffat and Katajainen's in-place construction over that
// order: one array holds the leaf weights, then the merged weights and
// parent links, then the internal depths, then the leaf depths. Its
// two queues — leaves in order, merged nodes in creation order — stay
// ordered by (weight, node index) with leaf i as node i and the j-th
// merge as node n+j, and a tie goes to the leaf, so the merges are
// exactly those of the textbook priority queue keyed on (weight, node
// index). Depths fall along that order (a node consumed earlier has a
// parent made no later), so handing the leaves the tree's depths
// deepest first gives every symbol its length in the heap
// construction's tree.
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
	leaves := h.leafOrder(freq)
	a := resize(h.tree, n)
	h.tree = a
	for k, sym := range leaves {
		a[k] = freq[sym]
	}
	// Merges: a[:root] link merged nodes to their parents, a[root:next]
	// are the merged weights not yet consumed, a[leaf:] the leaves left.
	// The node made last step is never consumed yet, so the first pick
	// always has a merged candidate.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Internal depths, root (a[n-2]) first: a parent comes after its
	// children.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Leaf depths, heaviest leaf first: each depth's free slots are
	// twice the internal nodes one level up, and every slot an internal
	// node does not take is a leaf.
	avail, used, depth := 1, 0, uint64(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
		depth++
	}
	for k, sym := range leaves {
		lens[sym] = int(a[k])
	}
	return lens
}

// leafOrder returns the symbols of ranked weights (see buildLengths) in
// (weight, symbol) order in one pass: the runs of equal weight among
// the ranked symbols from the lightest run up, each in index order,
// with the escape — the highest index — after every run no heavier
// than it.
func (h *huffScratch) leafOrder(freq []uint64) []int32 {
	n := len(freq)
	leaves := resize(h.leaves, n)
	h.leaves = leaves
	esc := int32(n - 1)
	escW := freq[esc]
	k := 0
	for end := n - 1; end > 0; {
		w := freq[end-1]
		start := end - 1
		for start > 0 && freq[start-1] == w {
			start--
		}
		if escW < w && esc >= 0 {
			leaves[k] = esc
			k++
			esc = -1
		}
		for sym := start; sym < end; sym++ {
			leaves[k] = int32(sym)
			k++
		}
		end = start
	}
	if esc >= 0 {
		leaves[k] = esc
	}
	return leaves
}

// canonicalAssign turns code lengths, each 1..sc2MaxCodeLen, into
// canonical codewords, written over codes' backing array when it has
// room: symbols take consecutive codes in (length, symbol) order, each
// length step shifting the running code left. Counting the lengths
// gives every length's first code, and one pass in symbol order hands
// them out.
func canonicalAssign(codes []huffCode, lens []int) []huffCode {
	var next [sc2MaxCodeLen + 1]uint32
	for _, l := range lens {
		next[l]++
	}
	code := uint32(0)
	for l := 1; l <= sc2MaxCodeLen; l++ {
		count := next[l]
		next[l] = code
		code = (code + count) << 1
	}
	codes = resize(codes, len(lens))
	for sym, l := range lens {
		codes[sym] = huffCode{bits: next[l], len: l}
		next[l]++
	}
	return codes
}

// huffTableBits is the width of huffDecoder's table index: codewords of
// up to this many bits decode with one lookup. The most frequent
// values' codes are the short ones, so nearly every word takes this
// path; 2^11 two-byte entries stay small beside the encode table.
const huffTableBits = 11

// huffDecoder decodes canonical codes: a table indexed by the next
// huffTableBits bits for the short codes, and a length-first search
// for the longer ones.
type huffDecoder struct {
	firstCode [sc2MaxCodeLen + 1]uint32
	firstIdx  [sc2MaxCodeLen + 1]int
	count     [sc2MaxCodeLen + 1]int
	symbols   []int
	// table maps every huffTableBits-bit window to symbol<<4 | length
	// for the codeword of at most huffTableBits bits that begins it,
	// and to 0 where the codeword is longer or there is none. A symbol
	// fits 12 bits: there are at most sc2TableSize of them.
	table []uint16
}

// build derives decode tables from a canonical codeword set (as
// canonicalAssign produces): within one length, codes ascend with the
// symbol index, so bucketing symbols by length in index order lists
// them by codeword. Lengths outside 1..sc2MaxCodeLen are not decodable
// and are left out.
func (d *huffDecoder) build(codes []huffCode) {
	symbols, table := d.symbols, d.table
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
	d.table = resize(table, 1<<huffTableBits)
	clear(d.table)
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
		if l <= huffTableBits {
			lo := int(c.bits) << uint(huffTableBits-l)
			fill := d.table[lo : lo+1<<uint(huffTableBits-l)]
			for i := range fill {
				fill[i] = uint16(sym)<<4 | uint16(l)
			}
		}
	}
}

// decode finds the codeword at the top of the window w (MSB-aligned,
// zeros past the payload's end, as bitReader.peek returns it). n is its
// length, 0 when no codeword of up to sc2MaxCodeLen bits begins w; a
// codeword longer than the bits left ran into the zeros, and the
// caller rejects it.
func (d *huffDecoder) decode(w uint64) (sym, n int) {
	if e := d.table[w>>(64-huffTableBits)]; e != 0 {
		return int(e >> 4), int(e & 15)
	}
	for l := huffTableBits + 1; l <= sc2MaxCodeLen; l++ {
		if off := uint32(w>>uint(64-l)) - d.firstCode[l]; off < uint32(d.count[l]) {
			return d.symbols[d.firstIdx[l]+int(off)], l
		}
	}
	return 0, 0
}
