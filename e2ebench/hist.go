package main

import (
	"math"
	"math/bits"
	"time"
)

// subBuckets is the histogram's resolution: buckets per power of two.
const subBuckets = 128

// histBuckets covers every non-negative int64 nanosecond count.
const histBuckets = subBuckets + (63-7)*subBuckets + subBuckets

// hist is a log-linear histogram of durations: exact below 128 ns, then
// 128 buckets per power of two, so a bucket is at most 0.8% wide. Its
// memory is fixed, so holding a run's samples does not make peak RSS
// grow with throughput. The zero value is empty and ready to use.
type hist struct {
	counts []uint64
	n      uint64
}

// bucket returns v's bucket index.
func bucket(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(v) - 8 // v>>shift is in [128, 256)
	return subBuckets + shift*subBuckets + int(v>>shift)&(subBuckets-1)
}

// bounds returns a bucket's lower bound and width.
func bounds(idx int) (lo, width float64) {
	if idx < subBuckets {
		return float64(idx), 1
	}
	shift := (idx - subBuckets) / subBuckets
	sub := (idx - subBuckets) % subBuckets
	return float64(uint64(subBuckets+sub) << shift), float64(uint64(1) << shift)
}

// add records one duration.
func (h *hist) add(d time.Duration) {
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucket(uint64(d))]++
	h.n++
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile in nanoseconds, interpolating
// by rank between order statistics and, within a bucket, linearly
// across its width. NaN when empty.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(h.n-1) // 0-based rank of the sample wanted
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < below+float64(c) {
			lo, width := bounds(i)
			return lo + (rank-below+0.5)/float64(c)*width
		}
		below += float64(c)
	}
	lo, width := bounds(histBuckets - 1)
	return lo + width
}
