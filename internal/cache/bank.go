package cache

import "fmt"

// Line is one NUCA bank tag entry, including the directory state the home
// bank keeps for its address slice (inclusive LLC).
type Line struct {
	Addr  Addr
	Valid bool
	Dirty bool
	// Segs is the number of data-array segments the line occupies
	// (compressed size rounded up to segment granularity).
	Segs int
	// SizeBytes is the stored (possibly compressed) size.
	SizeBytes int
	// Pinned lines are mid-transaction and ineligible for eviction.
	Pinned bool
	// Prefetched marks lines installed by the prefetcher and not yet
	// demanded (prefetch-accuracy accounting).
	Prefetched bool

	// Directory state: Owner is the tile holding the line in M/O (-1 when
	// none); Sharers is a bitmap of tiles holding it in S/E.
	Owner   int
	Sharers uint64

	lru uint64
}

// HasSharers reports whether any L1 holds the line.
func (l *Line) HasSharers() bool { return l.Owner >= 0 || l.Sharers != 0 }

// AddSharer sets tile's bit.
func (l *Line) AddSharer(tile int) { l.Sharers |= 1 << uint(tile) }

// RemoveSharer clears tile's bit.
func (l *Line) RemoveSharer(tile int) { l.Sharers &^= 1 << uint(tile) }

// IsSharer reports tile's bit.
func (l *Line) IsSharer(tile int) bool { return l.Sharers&(1<<uint(tile)) != 0 }

// BankConfig describes one NUCA bank.
type BankConfig struct {
	// Sets and Ways give the logical geometry (data capacity =
	// Sets*Ways*64 B).
	Sets int
	Ways int
	// TagFactor multiplies the tag count per set (2 in compressed
	// configurations, so a set can hold up to 2*Ways compressed lines;
	// 1 for uncompressed baselines).
	TagFactor int
	// SegmentBytes is the data-array allocation granularity (8 B).
	SegmentBytes int
	// Interleave is the global bank count; consecutive blocks map to
	// consecutive banks, so within a bank the set index uses addr /
	// Interleave.
	Interleave int
}

// Validate reports geometry errors.
func (c *BankConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: bank sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways <= 0 || c.TagFactor <= 0 || c.SegmentBytes <= 0 || c.Interleave <= 0 {
		return fmt.Errorf("cache: bank config has non-positive field: %+v", *c)
	}
	if 64%c.SegmentBytes != 0 {
		return fmt.Errorf("cache: segment size %d must divide 64", c.SegmentBytes)
	}
	return nil
}

// Bank is one NUCA LLC bank with a segmented, compression-aware data
// array: each set owns Ways*64/SegmentBytes segments, a line consumes
// ceil(size/SegmentBytes) of them, and up to TagFactor*Ways tags are
// available, so compressed lines raise effective capacity (the standard
// decoupled compressed-cache organization, cf. the paper's references
// [2][3][5]).
type Bank struct {
	cfg        BankConfig
	segsPerSet int
	tagsPerSet int
	sets       [][]Line
	clock      uint64

	Hits   uint64
	Misses uint64
	// Evictions counts data-array evictions (capacity or tag pressure).
	Evictions uint64
}

// NewBank builds a bank.
func NewBank(cfg BankConfig) *Bank {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Bank{
		cfg:        cfg,
		segsPerSet: cfg.Ways * 64 / cfg.SegmentBytes,
		tagsPerSet: cfg.Ways * cfg.TagFactor,
		sets:       make([][]Line, cfg.Sets),
	}
	for i := range b.sets {
		b.sets[i] = make([]Line, b.tagsPerSet)
		for j := range b.sets[i] {
			b.sets[i][j].Owner = -1
		}
	}
	return b
}

// Config returns the bank geometry.
func (b *Bank) Config() BankConfig { return b.cfg }

// setIndex maps a global block address to a set. The index is hashed
// (XOR-folded) so that large power-of-two-aligned regions spread over all
// sets, as real LLC set-index hash functions do.
func (b *Bank) setIndex(addr Addr) int {
	idx := uint64(addr) / uint64(b.cfg.Interleave)
	idx ^= idx >> 9
	idx ^= idx >> 18
	idx ^= idx >> 36
	return int(idx & uint64(b.cfg.Sets-1))
}

// segsFor returns the segment cost of a stored size.
func (b *Bank) segsFor(size int) int {
	if size <= 0 || size > 64 {
		panic(fmt.Sprintf("cache: stored size %d out of range", size))
	}
	return (size + b.cfg.SegmentBytes - 1) / b.cfg.SegmentBytes
}

// Lookup returns the line for addr (nil on miss), counting hit/miss and
// updating LRU.
func (b *Bank) Lookup(addr Addr) *Line {
	b.clock++
	s := b.sets[b.setIndex(addr)]
	for i := range s {
		if s[i].Valid && s[i].Addr == addr {
			s[i].lru = b.clock
			b.Hits++
			return &s[i]
		}
	}
	b.Misses++
	return nil
}

// Peek returns the line without touching LRU or counters.
func (b *Bank) Peek(addr Addr) *Line {
	s := b.sets[b.setIndex(addr)]
	for i := range s {
		if s[i].Valid && s[i].Addr == addr {
			return &s[i]
		}
	}
	return nil
}

// usedSegs sums segments held in a set.
func (b *Bank) usedSegs(set []Line) int {
	n := 0
	for i := range set {
		if set[i].Valid {
			n += set[i].Segs
		}
	}
	return n
}

// Insert installs addr with the given stored size, evicting LRU lines as
// needed to free a tag and enough segments. Pinned lines are skipped. The
// returned victims must be handled by the caller (recall/writeback). The
// new line is returned pinned=false, dirty as given, with empty directory.
func (b *Bank) Insert(addr Addr, sizeBytes int, dirty bool) (*Line, []Victim2) {
	segs := b.segsFor(sizeBytes)
	si := b.setIndex(addr)
	set := b.sets[si]
	if l := b.Peek(addr); l != nil {
		panic(fmt.Sprintf("cache: Insert(%x) but line already present", uint64(addr)))
	}
	var victims []Victim2
	for {
		freeTag := -1
		for i := range set {
			if !set[i].Valid {
				freeTag = i
				break
			}
		}
		enoughSegs := b.segsPerSet-b.usedSegs(set) >= segs
		if freeTag >= 0 && enoughSegs {
			b.clock++
			set[freeTag] = Line{
				Addr: addr, Valid: true, Dirty: dirty,
				Segs: segs, SizeBytes: sizeBytes, Owner: -1, lru: b.clock,
			}
			return &set[freeTag], victims
		}
		// Evict the LRU unpinned line.
		vi := -1
		for i := range set {
			if set[i].Valid && !set[i].Pinned && (vi < 0 || set[i].lru < set[vi].lru) {
				vi = i
			}
		}
		if vi < 0 {
			panic("cache: all lines pinned, cannot insert (protocol bug)")
		}
		victims = append(victims, Victim2{Line: set[vi]})
		set[vi].Valid = false
		b.Evictions++
	}
}

// Victim2 is an evicted bank line (full copy, including directory state,
// so the caller can recall L1 copies and write back dirty data).
type Victim2 struct {
	Line Line
}

// Resize changes a resident line's stored size (a writeback replaced its
// content). It may evict OTHER lines to make room when the line grows;
// the line itself is never a victim.
func (b *Bank) Resize(addr Addr, sizeBytes int) []Victim2 {
	l := b.Peek(addr)
	if l == nil {
		panic(fmt.Sprintf("cache: Resize(%x) on absent line", uint64(addr)))
	}
	newSegs := b.segsFor(sizeBytes)
	if newSegs <= l.Segs {
		l.Segs = newSegs
		l.SizeBytes = sizeBytes
		return nil
	}
	si := b.setIndex(addr)
	set := b.sets[si]
	var victims []Victim2
	for b.segsPerSet-b.usedSegs(set)+l.Segs < newSegs {
		vi := -1
		for i := range set {
			if set[i].Valid && !set[i].Pinned && set[i].Addr != addr &&
				(vi < 0 || set[i].lru < set[vi].lru) {
				vi = i
			}
		}
		if vi < 0 {
			panic("cache: cannot grow line, set fully pinned")
		}
		victims = append(victims, Victim2{Line: set[vi]})
		set[vi].Valid = false
		b.Evictions++
	}
	l.Segs = newSegs
	l.SizeBytes = sizeBytes
	return victims
}

// Invalidate drops the line if present, returning a copy.
func (b *Bank) Invalidate(addr Addr) (Line, bool) {
	l := b.Peek(addr)
	if l == nil {
		return Line{}, false
	}
	cp := *l
	l.Valid = false
	return cp, true
}

// Occupancy returns (lines, segments) currently valid (diagnostics).
func (b *Bank) Occupancy() (lines, segs int) {
	for _, s := range b.sets {
		for i := range s {
			if s[i].Valid {
				lines++
				segs += s[i].Segs
			}
		}
	}
	return
}

// ForEach calls f for every valid line (diagnostics/invariant checking).
func (b *Bank) ForEach(f func(*Line)) {
	for _, set := range b.sets {
		for i := range set {
			if set[i].Valid {
				f(&set[i])
			}
		}
	}
}
