package cmp

import (
	"github.com/disco-sim/disco/internal/cache"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
)

// mshrEntry tracks one outstanding L1 miss. Entries live by value in
// their core's table.
type mshrEntry struct {
	addr      cache.Addr
	write     bool
	issue     uint64
	measured  bool // issued after warmup: its latency is recorded
	coalesced int  // later accesses satisfied by the same fill
	// invalidated marks that an Inv/FetchInv overtook the fill (possible
	// because read grants release the directory before the requester
	// unblocks): the fill then satisfies the access but is not cached,
	// so no stale copy survives.
	invalidated bool
}

// coreState is one trace-driven core: it issues the profile's access
// stream with its configured gaps, hits in L1 in one cycle, and tolerates
// up to MSHRs outstanding misses (modelling the OoO window of Table 2's
// cores at the fidelity the on-chip-latency metric needs; DESIGN.md §3).
type coreState struct {
	id        int
	gen       trace.Stream
	opsIssued int
	opsDone   int
	gapLeft   int
	// pending is the access that stalled, valid while hasPending.
	pending    trace.Access
	hasPending bool
	retry      bool
	// mshrs holds the outstanding misses, unordered, one per block; its
	// capacity is Config.MSHRs.
	mshrs []mshrEntry
}

// newCore builds core id, driven by the synthetic generator or, when
// Config.Streams is set, by an externally supplied stream.
func newCore(id int, cfg *Config) *coreState {
	var gen trace.Stream
	if cfg.Streams != nil {
		gen = cfg.Streams[id]
	} else {
		gen = trace.NewGenerator(&cfg.Profile, id, cfg.Seed)
	}
	return &coreState{
		id:    id,
		gen:   gen,
		retry: true,
		mshrs: make([]mshrEntry, 0, cfg.MSHRs),
	}
}

// mshr returns the outstanding miss on addr, or nil. The pointer is
// valid until the table next changes.
func (c *coreState) mshr(addr cache.Addr) *mshrEntry {
	for i := range c.mshrs {
		if c.mshrs[i].addr == addr {
			return &c.mshrs[i]
		}
	}
	return nil
}

// addMSHR records a new miss. The caller has checked that the table has
// room (len < Config.MSHRs).
func (c *coreState) addMSHR(e mshrEntry) {
	n := len(c.mshrs)
	c.mshrs = c.mshrs[:n+1]
	c.mshrs[n] = e
}

// removeMSHR drops the entry m points at.
func (c *coreState) removeMSHR(m *mshrEntry) {
	last := len(c.mshrs) - 1
	*m = c.mshrs[last]
	c.mshrs = c.mshrs[:last]
}

// step advances the core one cycle.
func (c *coreState) step(s *System) {
	if c.opsIssued >= s.cfg.WarmupOps+s.cfg.OpsPerCore && !c.hasPending {
		return
	}
	if c.gapLeft > 0 {
		c.gapLeft--
		return
	}
	var acc trace.Access
	if c.hasPending {
		if !c.retry {
			return // still blocked; wait for a fill
		}
		acc = c.pending
	} else {
		acc = c.gen.Next()
	}
	if !c.tryIssue(s, acc) {
		c.pending, c.hasPending = acc, true
		c.retry = false
		return
	}
	c.hasPending = false
	c.opsIssued++
	c.gapLeft = acc.Gap
}

// tryIssue attempts one access; false means the core must stall. L1
// hit/miss counters are touched exactly once per issued access (retries
// while the MSHR table is full do not re-count).
func (c *coreState) tryIssue(s *System, acc trace.Access) bool {
	addr := cache.Addr(acc.Addr)
	l1 := s.l1s[c.id]
	// Coalesce with an outstanding miss?
	if m := c.mshr(addr); m != nil {
		if !acc.Write || m.write {
			m.coalesced++
			return true
		}
		return false // write behind a read miss: wait for the fill
	}
	st := l1.State(addr)
	if !st.CanRead() || (acc.Write && !st.CanWrite()) {
		// Definite miss: reserve the MSHR before touching counters.
		if len(c.mshrs) >= s.cfg.MSHRs {
			return false
		}
	}
	if l1.Access(addr, acc.Write) {
		if acc.Write {
			// Writes dirty the line (E -> M silently).
			if l1.State(addr) == cache.Exclusive {
				l1.SetState(addr, cache.Modified)
			}
		}
		c.opsDone++
		return true
	}
	c.addMSHR(mshrEntry{
		addr: addr, write: acc.Write, issue: s.now,
		measured: c.opsIssued >= s.cfg.WarmupOps,
	})
	kind := mGetS
	if acc.Write {
		kind = mGetX
	}
	s.sendCtrl(kind, addr, c.id, s.homeOf(addr), 0, noc.ClassRequest)
	return true
}
