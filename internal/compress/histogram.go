package compress

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
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
	// topK scratch, reused across retrains
	sel  []valueCount
	ties []uint32
	big  []uint64
}

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
// returned slice is scratch owned by h, valid until the next call.
func (h *valueHist) topK(k int) []valueCount {
	k = min(k, len(h.vals))
	sel := h.sel[:0]
	if k <= 0 {
		return sel
	}
	cut := h.kthCount(k)
	ties := h.ties[:0]
	for i, c := range h.cnts {
		if c > cut {
			sel = append(sel, valueCount{h.vals[i], c})
		} else if c == cut {
			ties = append(ties, h.vals[i])
		}
	}
	if need := k - len(sel); need < len(ties) {
		last := kthSmallest(ties, need)
		n := 0
		for _, v := range ties {
			if v <= last {
				ties[n] = v
				n++
			}
		}
		ties = ties[:n]
	}
	for _, v := range ties {
		sel = append(sel, valueCount{v, cut})
	}
	slices.SortFunc(sel, func(a, b valueCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.v, b.v)
	})
	h.sel, h.ties = sel, ties
	return sel
}

// kthCount returns the k-th largest count, 1 <= k <= len(h.cnts): one
// counting pass over the small counts, with the few counts of 256 and
// more (at most total/256 of them) set aside for a selection of their
// own.
func (h *valueHist) kthCount(k int) uint64 {
	var small [256]int
	big := h.big[:0]
	for _, c := range h.cnts {
		if c < uint64(len(small)) {
			small[c]++
		} else {
			big = append(big, c)
		}
	}
	h.big = big
	if k <= len(big) {
		return kthSmallest(big, len(big)-k+1)
	}
	k -= len(big)
	c := len(small) - 1
	for k > small[c] {
		k -= small[c]
		c--
	}
	return uint64(c)
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
