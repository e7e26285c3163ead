package compress

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// valueHist is the dense 32-bit value histogram behind the trainable
// codecs (SC², FVC): a value -> entry index map plus parallel value and
// count slices, so a retrain scans two flat arrays instead of iterating
// (and copying) a map. Entries are never removed; the zero value is an
// empty histogram that allocates on its first observation.
type valueHist struct {
	idx   map[uint32]int32
	vals  []uint32
	cnts  []uint64
	total uint64 // sum of cnts
}

// retrainScratch is one retrain's working memory: topK's selection
// buffers plus SC²'s code-build scratch. A retrain needs it only while
// it runs, so it comes from a pool rather than living in each codec:
// concurrent streams share a few (about 400 KB each at SC²'s table
// size) instead of every idle stream holding its own, and a retrain
// that finds a pooled one large enough allocates nothing.
type retrainScratch struct {
	sel   []valueCount
	ties  []uint32
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
		// Runs of one word (zero fill, repeated values) skip the map.
		if last < 0 || v != lastVal {
			last, lastVal = h.entry(v), v
		}
		h.cnts[last]++
		h.total++
	}
}

// entry returns v's index, adding a zero-count entry on first sight.
func (h *valueHist) entry(v uint32) int32 {
	if j, ok := h.idx[v]; ok {
		return j
	}
	if h.idx == nil {
		h.idx = make(map[uint32]int32)
	}
	j := int32(len(h.vals))
	h.idx[v] = j
	h.vals = append(h.vals, v)
	h.cnts = append(h.cnts, 0)
	return j
}

// valueCount is one histogram entry: a value and how often it was seen.
type valueCount struct {
	v uint32
	n uint64
}

// topK returns the k best-ranked entries in table order — higher count
// first, lower value on ties — exactly the first k entries of the whole
// histogram sorted that way. Rather than sorting every entry, it finds
// the k-th best count (the cut), takes every entry above the cut, fills
// the rest with the lowest values among the entries at the cut, and
// sorts only those k: O(distinct values) + O(k log k) on any input. The
// returned slice lives in sc, valid until sc's next use.
//
// The scratch is sized by k alone: the large counts and the entries at
// the cut are each gathered into 2k slots, compacted to the k that can
// still matter whenever the slots fill. k depends only on how many
// distinct values h holds, so once sc has served a histogram this large
// it never grows again.
func (h *valueHist) topK(k int, sc *retrainScratch) []valueCount {
	k = min(k, len(h.vals))
	if k <= 0 {
		return sc.sel[:0]
	}
	if cap(sc.sel) < k {
		sc.sel, sc.ties, sc.big = make([]valueCount, 0, k), make([]uint32, 0, 2*k), make([]uint64, 0, 2*k)
	}
	cut := h.kthCount(k, sc.big[:0])
	sel, ties := sc.sel[:0], sc.ties[:0]
	for i, c := range h.cnts {
		switch {
		case c > cut: // fewer than k entries
			sel = append(sel, valueCount{h.vals[i], c})
		case c == cut:
			if len(ties) == cap(ties) {
				ties = keepLowest(ties, k)
			}
			ties = append(ties, h.vals[i])
		}
	}
	for _, v := range keepLowest(ties, k-len(sel)) {
		sel = append(sel, valueCount{v, cut})
	}
	slices.SortFunc(sel, func(a, b valueCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.v, b.v)
	})
	return sel
}

// kthCount returns the k-th largest count, 1 <= k <= len(h.cnts): one
// counting pass over the small counts, with the few counts of 256 and
// more set aside in big (2k slots, at most the k largest of them kept)
// for a selection of their own.
func (h *valueHist) kthCount(k int, big []uint64) uint64 {
	var small [256]int
	nbig := 0
	for _, c := range h.cnts {
		if c < uint64(len(small)) {
			small[c]++
			continue
		}
		if len(big) == cap(big) {
			big = keepHighest(big, k)
		}
		big = append(big, c)
		nbig++
	}
	if k <= nbig {
		return kthSmallest(big, len(big)-k+1)
	}
	k -= nbig
	c := len(small) - 1
	for k > small[c] {
		k -= small[c]
		c--
	}
	return uint64(c)
}

// keepLowest keeps the n lowest of the distinct values xs (all of them
// when there are no more than n), permuting xs.
func keepLowest(xs []uint32, n int) []uint32 {
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
func kthSmallest[T uint32 | uint64](xs []T, k int) T {
	var top T
	for _, x := range xs {
		top |= x
	}
	for shift := (bits.Len64(uint64(top)) - 1) &^ 7; shift >= 0; shift -= 8 {
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
