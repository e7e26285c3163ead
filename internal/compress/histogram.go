package compress

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// valueHist is the dense 32-bit value histogram behind the trainable
// codecs (SC², FVC): parallel value and count slices behind an
// open-addressing index, plus what an incremental retrain needs — the
// last ranking topK returned and the entries counted since. Entries are
// never removed, only all at once by reset; the zero value is an empty
// histogram that allocates on its first observation.
type valueHist struct {
	vals []uint32
	// cnts are the entry counts. An entry ranked by an earlier topK and
	// counted again since carries movedBit on top of its count until the
	// next topK clears it.
	cnts  []uint64
	total uint64 // sum of the counts, without movedBit
	// slots is the value index: entry index + 1 per slot (0 marks a free
	// slot), a power-of-two slot count at no more than two-thirds load,
	// hashed as SC2.buildLookup hashes, with linear probing.
	slots []int32
	shift uint32
	// moved lists the entries below ranked that carry movedBit; every
	// entry from ranked up was added since the last topK.
	moved  []int32
	ranked int
	rank   []int32 // the last topK's entries, best first
}

// movedBit flags a count that rose since the last topK. No count comes
// near it: that would take 2^63 words.
const movedBit = 1 << 63

// histIndexSlots is the index's first size, room for 2730 entries: a
// first 256-block retrain period of mixed data (~1300 distinct words)
// fits, and a 1024-block stream (~5100) regrows it once.
const histIndexSlots = 4096

// retrainScratch is one retrain's working memory: topK's selection and
// merge buffers plus SC²'s code-build scratch. A retrain needs it only
// while it runs, so it comes from a pool rather than living in each
// codec: concurrent streams share a few (about 520 KB each at SC²'s
// table size) instead of every idle stream holding its own, and a
// retrain that finds a pooled one large enough allocates nothing.
type retrainScratch struct {
	sel   []valueCount
	keep  []valueCount
	ties  []uint64
	big   []uint64
	freqs []uint64 // SC² symbol weights
	huff  huffScratch
}

var retrainPool = sync.Pool{New: func() any { return new(retrainScratch) }}

// observe folds every whole 32-bit word of block into the histogram.
func (h *valueHist) observe(block []byte) {
	last := int32(-1)
	var lastVal uint32
	for i := 0; i+WordSize <= len(block); i += WordSize {
		v := binary.LittleEndian.Uint32(block[i:])
		// Runs of one word (zero fill, repeated values) skip the index.
		if last < 0 || v != lastVal {
			last, lastVal = h.entry(v), v
		}
		h.cnts[last]++
		h.total++
	}
}

// entry returns v's index for a count about to rise: it adds a
// zero-count entry on first sight and marks a ranked entry moved.
func (h *valueHist) entry(v uint32) int32 {
	if len(h.slots) == 0 {
		h.rehash(histIndexSlots)
	}
	mask := uint32(len(h.slots) - 1)
	i := (v * sc2HashMul) >> h.shift
	for s := h.slots[i]; s != 0; s = h.slots[i] {
		if j := s - 1; h.vals[j] == v {
			if int(j) < h.ranked && h.cnts[j]&movedBit == 0 {
				h.cnts[j] |= movedBit
				h.moved = append(h.moved, j)
			}
			return j
		}
		i = (i + 1) & mask
	}
	j := int32(len(h.vals))
	h.vals = append(h.vals, v)
	h.cnts = append(h.cnts, 0)
	h.slots[i] = j + 1
	if 3*len(h.vals) > 2*len(h.slots) {
		h.rehash(2 * len(h.slots))
	}
	return j
}

// rehash rebuilds the index at size slots, a power of two, in the
// index's own memory when it has room: the entries are reinserted from
// vals, so the old slots are not needed.
func (h *valueHist) rehash(size int) {
	h.slots = resize(h.slots, size)
	clear(h.slots)
	h.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for j, v := range h.vals {
		i := (v * sc2HashMul) >> h.shift
		for h.slots[i] != 0 {
			i = (i + 1) & mask
		}
		h.slots[i] = int32(j) + 1
	}
}

// histKeepEntries bounds the entries a reset histogram keeps room for.
// A histogram grows with its stream's distinct words, about 5100 over
// a 1024-block stream of mixed data and 80k over 16384 blocks; one that
// outgrew the bound is dropped on reset rather than held in a pool,
// where it would raise a server's resident memory.
const histKeepEntries = 1 << 14

// reset empties the histogram. Up to histKeepEntries it keeps its
// memory: the entries, the index and the ranking refill the slices
// they had, so a recycled histogram regrows nothing it has already
// held. The index restarts at histIndexSlots, as a new histogram's
// does.
func (h *valueHist) reset() {
	if cap(h.vals) > histKeepEntries {
		*h = valueHist{}
		return
	}
	h.vals, h.cnts, h.total = h.vals[:0], h.cnts[:0], 0
	h.slots = h.slots[:0]
	h.moved, h.ranked, h.rank = h.moved[:0], 0, h.rank[:0]
}

// valueCount is one histogram entry: its value, index and count.
type valueCount struct {
	v uint32
	j int32
	n uint64
}

// ranksBefore orders entries higher count first, lower value on ties.
func ranksBefore(a, b valueCount) bool {
	return a.n > b.n || a.n == b.n && a.v < b.v
}

// topK returns the k best-ranked entries in table order — higher count
// first, lower value on ties — exactly the first k entries of the whole
// histogram sorted that way. k must be the same on every call for one
// histogram. The returned slice lives in sc, valid until sc's next use.
//
// Only the moved entries, those counted since the last call, are
// ranked. An entry that neither moved nor made the last top k still
// trails all k of those winners, whose counts can only have grown, so
// the new top k lies within the old winners plus the moved entries. Of
// those it finds the k-th best count (the cut), takes every entry above
// it and fills up with the lowest values among the entries at it. The
// old winners that did not move keep their order, so only the moved
// winners are sorted before the two runs merge. The first call ranks
// every entry through the same path. Cost: O(k + moved) + O(w log w)
// for the w moved winners — independent of how many distinct values the
// histogram holds.
//
// The scratch is sized by k alone: the large counts and the entries at
// the cut are each gathered into 2k slots, compacted to the k that can
// still matter whenever the slots fill.
func (h *valueHist) topK(k int, sc *retrainScratch) []valueCount {
	k = min(k, len(h.vals))
	if k == 0 {
		return nil
	}
	if cap(sc.sel) < k {
		sc.sel, sc.keep = make([]valueCount, 0, k), make([]valueCount, 0, k)
		sc.ties, sc.big = make([]uint64, 0, 2*k), make([]uint64, 0, 2*k)
	}
	keep := sc.keep[:0]
	for _, j := range h.rank {
		if c := h.cnts[j]; c&movedBit == 0 {
			keep = append(keep, valueCount{h.vals[j], j, c})
		}
	}
	for _, j := range h.moved {
		h.cnts[j] &^= movedBit
	}
	moved := len(h.moved) + len(h.vals) - h.ranked
	// movedAt(x) is the x-th moved entry: the listed ranked ones, then
	// every entry added since the last call.
	movedAt := func(x int) int32 {
		if x < len(h.moved) {
			return h.moved[x]
		}
		return int32(h.ranked + x - len(h.moved))
	}

	cut := kthLargest{k: k, big: sc.big[:0]}
	for _, e := range keep {
		cut.add(e.n)
	}
	for x := range moved {
		cut.add(h.cnts[movedAt(x)])
	}
	at := cut.value()

	// Ties are keyed value<<32 | index, which orders them by value (the
	// values are distinct); keptTie marks the old winners among them.
	const keptTie = 1 << 31
	sel, ties := sc.sel[:0], sc.ties[:0]
	above := 0 // old winners above the cut, a prefix of keep
	for _, e := range keep {
		if e.n < at {
			break
		}
		if e.n > at {
			above++
			continue
		}
		if len(ties) == cap(ties) {
			ties = keepLowest(ties, k)
		}
		ties = append(ties, uint64(e.v)<<32|uint64(e.j)|keptTie)
	}
	for x := range moved {
		j := movedAt(x)
		switch c := h.cnts[j]; {
		case c > at: // fewer than k entries
			sel = append(sel, valueCount{h.vals[j], j, c})
		case c == at:
			if len(ties) == cap(ties) {
				ties = keepLowest(ties, k)
			}
			ties = append(ties, uint64(h.vals[j])<<32|uint64(j))
		}
	}
	// The old winners tied at the cut that make it are the lowest-valued
	// ones, and keep lists them by value: they extend the prefix.
	n := above
	for _, t := range keepLowest(ties, k-above-len(sel)) {
		if t&keptTie != 0 {
			n++
		} else {
			sel = append(sel, valueCount{uint32(t >> 32), int32(uint32(t)), at})
		}
	}
	keep = keep[:n]
	h.moved, h.ranked = h.moved[:0], len(h.vals)

	slices.SortFunc(sel, func(a, b valueCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.v, b.v)
	})
	// Merge from the back into keep, which has room for all k.
	out := keep[:len(keep)+len(sel)]
	i, w := len(keep)-1, len(out)-1
	for x := len(sel) - 1; x >= 0; w-- {
		if i >= 0 && ranksBefore(sel[x], keep[i]) {
			out[w] = keep[i]
			i--
		} else {
			out[w] = sel[x]
			x--
		}
	}
	h.rank = h.rank[:0]
	for _, e := range out {
		h.rank = append(h.rank, e.j)
	}
	return out
}

// kthLargest finds the k-th largest of the counts added to it, 1 <= k
// <= their number: a counting pass over the small counts, with the few
// counts of 256 and more set aside in big (2k slots, at most the k
// largest of them kept) for a selection of their own.
type kthLargest struct {
	k     int
	small [256]int
	big   []uint64
	nbig  int
}

func (s *kthLargest) add(c uint64) {
	if c < uint64(len(s.small)) {
		s.small[c]++
		return
	}
	if len(s.big) == cap(s.big) {
		s.big = keepHighest(s.big, s.k)
	}
	s.big = append(s.big, c)
	s.nbig++
}

func (s *kthLargest) value() uint64 {
	k := s.k
	if k <= s.nbig {
		return kthSmallest(s.big, len(s.big)-k+1)
	}
	k -= s.nbig
	c := len(s.small) - 1
	for k > s.small[c] {
		k -= s.small[c]
		c--
	}
	return uint64(c)
}

// keepLowest keeps the n lowest of the distinct keys xs (all of them
// when there are no more than n), permuting xs.
func keepLowest(xs []uint64, n int) []uint64 {
	if n >= len(xs) {
		return xs
	}
	last := kthSmallest(xs, n)
	m := 0
	for _, v := range xs {
		if v <= last {
			xs[m] = v
			m++
		}
	}
	return xs[:m]
}

// keepHighest keeps the n largest of xs, counting repeats, permuting
// xs. 1 <= n <= len(xs).
func keepHighest(xs []uint64, n int) []uint64 {
	t := kthSmallest(xs, len(xs)-n+1) // the n-th largest
	m := 0
	for _, x := range xs {
		if x > t {
			xs[m] = x
			m++
		}
	}
	for ; m < n; m++ {
		xs[m] = t
	}
	return xs[:m]
}

// kthSmallest returns the k-th smallest element of xs, 1 <= k <=
// len(xs), permuting xs. Most-significant-byte-first radix rounds each
// narrow the candidates to the bucket that holds the answer (swapping
// them to the front), so the work is O(len(xs)) for any input.
func kthSmallest(xs []uint64, k int) uint64 {
	var top uint64
	for _, x := range xs {
		top |= x
	}
	for shift := (bits.Len64(top) - 1) &^ 7; shift >= 0; shift -= 8 {
		var hist [256]int
		for _, x := range xs {
			hist[byte(x>>uint(shift))]++
		}
		b := 0
		for k > hist[b] {
			k -= hist[b]
			b++
		}
		if hist[b] == len(xs) {
			continue // every candidate shares this byte
		}
		n := 0
		for i, x := range xs {
			if byte(x>>uint(shift)) == byte(b) {
				xs[n], xs[i] = x, xs[n]
				n++
			}
		}
		xs = xs[:n]
	}
	return xs[0]
}
