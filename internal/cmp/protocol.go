package cmp

import (
	"fmt"
	"math/bits"

	"github.com/disco-sim/disco/internal/cache"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/noc"
)

// txnPhase tracks a home transaction.
type txnPhase int

const (
	phProbe   txnPhase = iota // tag/directory lookup in flight
	phMem                     // waiting for the memory fill
	phCollect                 // waiting for invalidation acks / owner data
	phUnblock                 // response sent, waiting for Unblock
)

// txn is one blocking directory transaction, serialized per line at the
// home bank (MOESI-lite; see DESIGN.md §3). Finished transactions are
// recycled through the System's free list (takeTxn/releaseTxn).
type txn struct {
	id           uint64
	addr         cache.Addr
	home         int
	requester    int
	write        bool
	phase        txnPhase
	pendingAcks  int
	dramCycles   uint64
	cohCycles    uint64
	collectStart uint64
	// waiters are requests and writebacks parked behind this
	// transaction, in arrival order. The backing array stays with the
	// txn across recycling; a successor copies what it inherits.
	waiters []*message
	next    *txn // free-list link
}

// takeTxn returns a zeroed transaction from the free list, or a new one.
func (s *System) takeTxn() *txn {
	t := s.freeTxns
	if t == nil {
		return &txn{}
	}
	s.freeTxns = t.next
	t.next = nil
	return t
}

// releaseTxn recycles a finished transaction. Its parked messages have
// been drained or copied to a successor by then.
func (s *System) releaseTxn(t *txn) {
	clear(t.waiters)
	t.waiters = t.waiters[:0]
	*t = txn{waiters: t.waiters, next: s.freeTxns}
	s.freeTxns = t
}

// liveTxn returns the in-flight transaction id at (home, addr). Events
// that resume a transaction carry its id rather than a pointer; it
// cannot finish before they fire, so a miss is a protocol bug.
func (s *System) liveTxn(home int, addr cache.Addr, id uint64) *txn {
	t, ok := s.txns[home][addr]
	if !ok || t.id != id {
		panic(fmt.Sprintf("cmp: event for finished transaction %d at home %d", id, home))
	}
	return t
}

// park queues msg behind t; the message stays live until finishTxn
// drains it.
func (t *txn) park(msg *message) {
	msg.parked = true
	t.waiters = append(t.waiters, msg)
}

// homeRequest handles GetS/GetX arriving at the home bank.
func (s *System) homeRequest(home int, msg *message) {
	msg.arrivedAt = s.now
	if t, ok := s.txns[home][msg.addr]; ok {
		t.park(msg)
		return
	}
	s.startTxn(home, msg, nil)
}

// startTxn creates and launches a transaction, inheriting queued waiters
// (copied: the predecessor's array returns to the free list with it).
func (s *System) startTxn(home int, msg *message, inherited []*message) {
	s.nextTxnID++
	t := s.takeTxn()
	t.id, t.addr, t.home = s.nextTxnID, msg.addr, home
	t.requester, t.write = msg.requester, msg.kind == mGetX
	t.cohCycles = s.now - msg.arrivedAt // time spent queued behind another txn
	t.waiters = append(t.waiters, inherited...)
	s.txns[home][msg.addr] = t
	s.events.push(event{cycle: s.now + s.cfg.TagLatency, kind: evProbe, node: home, addr: t.addr, txnID: t.id})
}

// txnProbe performs the tag + directory lookup.
func (s *System) txnProbe(t *txn) {
	s.bankProbes++
	bank := s.banks[t.home]
	line := bank.Lookup(t.addr)
	if line == nil {
		s.l2Misses++
		t.phase = phMem
		s.sendCtrl(mMemRead, t.addr, t.home, s.cfg.MCNode, t.id, noc.ClassRequest)
		return
	}
	s.l2Hits++
	line.Pinned = true
	s.txnCollect(t, line)
}

// txnCollect issues invalidations / owner fetches and waits for acks.
func (s *System) txnCollect(t *txn, line *cache.Line) {
	acks := 0
	if t.write {
		for m := line.Sharers; m != 0; m &= m - 1 {
			sh := bits.TrailingZeros64(m)
			if sh == t.requester {
				continue
			}
			s.sendCtrl(mInv, t.addr, t.home, sh, t.id, noc.ClassCoherence)
			acks++
		}
		if line.Owner >= 0 && line.Owner != t.requester {
			s.sendCtrl(mFetchInv, t.addr, t.home, line.Owner, t.id, noc.ClassCoherence)
			acks++
		}
	} else if line.Owner >= 0 && line.Owner != t.requester {
		s.sendCtrl(mFetch, t.addr, t.home, line.Owner, t.id, noc.ClassCoherence)
		acks++
	}
	t.pendingAcks = acks
	if acks == 0 {
		s.txnRespond(t)
		return
	}
	t.collectStart = s.now
	t.phase = phCollect
}

// homeAck consumes InvAck / OwnerWB at the home.
func (s *System) homeAck(home int, msg *message, isData bool) {
	t, ok := s.txns[home][msg.addr]
	if !ok || t.id != msg.txnID {
		// Stray ack from an asynchronous victim recall.
		if isData {
			s.strayOwnerData(home, msg)
		}
		return
	}
	if isData {
		// Owner's data refreshes the LLC copy.
		s.bankAccesses++
		s.bankBytes += uint64(s.storedSize(msg.addr))
		if line := s.banks[home].Peek(msg.addr); line != nil {
			line.Dirty = true
		}
	}
	t.pendingAcks--
	if t.pendingAcks == 0 {
		t.cohCycles += s.now - t.collectStart // invalidation / owner round-trip
		s.txnRespond(t)
	}
}

// strayOwnerData handles owner data from a victim recall whose line is
// already gone: it continues to memory.
func (s *System) strayOwnerData(home int, msg *message) {
	if line := s.banks[home].Peek(msg.addr); line != nil {
		s.bankAccesses++
		s.bankBytes += uint64(s.storedSize(msg.addr))
		line.Dirty = true
		return
	}
	s.sendData(mMemWB, msg.addr, home, s.cfg.MCNode, 0, cache.Invalid, srcCore)
}

// txnRespond updates the directory and sends the grant.
func (s *System) txnRespond(t *txn) {
	line := s.banks[t.home].Peek(t.addr)
	if line == nil {
		panic("cmp: responding transaction lost its (pinned) line")
	}
	t.phase = phUnblock
	if t.write {
		hadCopy := line.Owner == t.requester || line.IsSharer(t.requester)
		line.Sharers = 0
		line.Owner = t.requester
		if hadCopy {
			// Upgrade: dataless grant.
			s.sendCtrl(mGrantX, t.addr, t.home, t.requester, t.id, noc.ClassCoherence)
			return
		}
		s.sendBankData(t, t.id, cache.Modified)
		return
	}
	grant := cache.Shared
	if !line.HasSharers() {
		grant = cache.Exclusive
		line.Owner = t.requester // silent E->M makes the E holder the owner
	} else {
		line.AddSharer(t.requester)
	}
	// Read grants that involved no third party (no owner fetch) release
	// the line immediately: the directory state is already consistent, so
	// serializing further readers behind an Unblock round-trip would only
	// throttle read-shared hot lines (real directories do the same).
	if t.pendingAcks == 0 && !t.write {
		s.sendBankData(t, 0, grant)
		s.finishTxn(t)
		return
	}
	s.sendBankData(t, t.id, grant)
}

// sendBankData schedules t's data grant after the bank access latency,
// tagged txnID (0 = no Unblock expected). The event copies t's fields:
// t may finish, and be recycled, before it fires.
func (s *System) sendBankData(t *txn, txnID uint64, grant cache.CohState) {
	s.events.push(event{cycle: s.now + s.cfg.BankLatency, kind: evBankData, node: t.home, peer: t.requester,
		addr: t.addr, txnID: txnID, grant: grant, dram: t.dramCycles, coh: t.cohCycles})
}

// finishTxn releases the line, drains waiters (shared by the immediate
// and Unblock completion paths) and recycles t: each drained message is
// released, and the ones behind a drained request move to its txn.
func (s *System) finishTxn(t *txn) {
	if line := s.banks[t.home].Peek(t.addr); line != nil {
		line.Pinned = false
	}
	delete(s.txns[t.home], t.addr)
	for i, w := range t.waiters {
		switch w.kind {
		case mWB:
			s.applyWriteback(t.home, w)
			s.releaseMessage(w)
		case mGetS, mGetX:
			s.startTxn(t.home, w, t.waiters[i+1:])
			s.releaseMessage(w)
			s.releaseTxn(t)
			return
		}
	}
	s.releaseTxn(t)
}

// homeUnblock finishes a transaction and drains waiters.
func (s *System) homeUnblock(home int, msg *message) {
	t, ok := s.txns[home][msg.addr]
	if !ok || t.id != msg.txnID {
		return
	}
	s.finishTxn(t)
}

// homeWriteback handles an L1 victim writeback at the home.
func (s *System) homeWriteback(home int, msg *message) {
	if t, ok := s.txns[home][msg.addr]; ok {
		t.park(msg)
		return
	}
	s.applyWriteback(home, msg)
}

// applyWriteback folds the writeback into the LLC (or forwards it to
// memory when the line is gone).
func (s *System) applyWriteback(home int, msg *message) {
	s.wbPackets++
	line := s.banks[home].Peek(msg.addr)
	if line == nil {
		s.sendData(mMemWB, msg.addr, home, s.cfg.MCNode, 0, cache.Invalid, srcCore)
		return
	}
	s.bankAccesses++
	s.bankBytes += uint64(s.storedSize(msg.addr))
	line.Dirty = true
	if line.Owner == msg.requester {
		line.Owner = -1
	}
	line.RemoveSharer(msg.requester)
	// Bank-side fill compression latency (CC/CNC recompress the block the
	// NI handed them; DISCO/Ideal banks receive the stored form or paid at
	// ejection already).
	if s.cfg.Mode == CC || s.cfg.Mode == CNC {
		s.compOps++
	}
}

// homeMemData installs a memory fill and resumes the transaction.
func (s *System) homeMemData(home int, msg *message) {
	t, ok := s.txns[home][msg.addr]
	if !ok || t.id != msg.txnID || t.phase != phMem {
		return // stale fill (cannot normally happen)
	}
	t.dramCycles = msg.dramCycles
	if s.cfg.Mode == CC || s.cfg.Mode == CNC {
		// The bank compressor sits on the fill path.
		s.compOps++
		s.events.push(event{cycle: s.now + uint64(s.cfg.Algorithm.CompLatency()),
			kind: evMemFill, node: home, addr: t.addr, txnID: t.id})
		return
	}
	s.installFill(t)
}

// installFill inserts t's memory fill into its home bank, evicting as
// needed, and moves t on to collection.
func (s *System) installFill(t *txn) {
	size := s.storedSize(t.addr)
	line, victims := s.banks[t.home].Insert(t.addr, size, false)
	line.Pinned = true
	s.bankAccesses++
	s.bankBytes += uint64(size)
	for _, v := range victims {
		s.evictVictim(t.home, v)
	}
	s.txnCollect(t, line)
}

// evictVictim tears down an evicted LLC line: recall L1 copies
// (fire-and-forget) and write dirty data back to memory.
func (s *System) evictVictim(home int, v cache.Victim2) {
	for m := v.Line.Sharers; m != 0; m &= m - 1 {
		s.sendCtrl(mInv, v.Line.Addr, home, bits.TrailingZeros64(m), 0, noc.ClassCoherence)
	}
	if v.Line.Owner >= 0 {
		s.sendCtrl(mFetchInv, v.Line.Addr, home, v.Line.Owner, 0, noc.ClassCoherence)
		return // the owner's data will continue to memory via strayOwnerData
	}
	if v.Line.Dirty {
		s.sendData(mMemWB, v.Line.Addr, home, s.cfg.MCNode, 0, cache.Invalid, srcBank)
	}
}

// --- Memory controller ---------------------------------------------------

// mcRead services a fill request at the memory controller.
func (s *System) mcRead(node int, msg *message) {
	ready := s.dram.Access(uint64(msg.addr), false, s.now)
	s.events.push(event{cycle: ready, kind: evDRAMReturn, node: node, peer: msg.requester,
		addr: msg.addr, txnID: msg.txnID, dram: ready - s.now})
}

// mcWrite absorbs a writeback at the memory controller.
func (s *System) mcWrite(_ int, msg *message) {
	s.dram.Access(uint64(msg.addr), true, s.now)
}

// --- Core-side protocol handlers ------------------------------------------

// coreInv invalidates an L1 copy and acks. An invalidation that overtakes
// an in-flight fill poisons the fill (see mshrEntry.invalidated).
func (s *System) coreInv(node int, msg *message) {
	s.l1s[node].Invalidate(msg.addr)
	if m := s.cores[node].mshr(msg.addr); m != nil {
		m.invalidated = true
	}
	if msg.txnID != 0 {
		s.sendCtrl(mInvAck, msg.addr, node, msg.requester, msg.txnID, noc.ClassCoherence)
	}
}

// coreFetch services Fetch/FetchInv at the (possibly former) owner.
func (s *System) coreFetch(node int, msg *message, inv bool) {
	st := s.l1s[node].State(msg.addr)
	switch {
	case inv:
		s.l1s[node].Invalidate(msg.addr)
		if m := s.cores[node].mshr(msg.addr); m != nil {
			m.invalidated = true
		}
	case st.Dirty():
		s.l1s[node].SetState(msg.addr, cache.Owned)
	case st == cache.Exclusive:
		// A read fetch downgrades a clean-exclusive copy to Shared.
		s.l1s[node].SetState(msg.addr, cache.Shared)
	}
	// Data values are address-deterministic, so an ex-owner whose
	// writeback is still in flight can regenerate the payload.
	s.sendData(mOwnerWB, msg.addr, node, msg.requester, msg.txnID, cache.Invalid, srcCore)
}

// coreFill completes a miss at the requesting core.
func (s *System) coreFill(node int, msg *message) {
	c := s.cores[node]
	m := c.mshr(msg.addr)
	if m == nil {
		return // stray (cannot normally happen)
	}
	grant := msg.grant
	if msg.kind == mGrantX {
		grant = cache.Modified
	}
	if m.invalidated {
		// The grant was overtaken by an invalidation: satisfy the access
		// without caching a stale copy.
		grant = cache.Invalid
	}
	if grant != cache.Invalid {
		victim, evicted := s.l1s[node].Insert(msg.addr, grant)
		if evicted && victim.State.Dirty() {
			s.sendData(mWB, victim.Addr, node, s.homeOf(victim.Addr), 0, cache.Invalid, srcCore)
		}
	}
	if m.measured {
		total := s.now - m.issue
		onchip := total - msg.dramCycles - msg.cohCycles
		s.missLatency.Add(float64(onchip))
		s.missTotal.Add(float64(total))
		s.missHist.Add(float64(onchip))
	}
	c.opsDone += 1 + m.coalesced
	c.removeMSHR(m)
	c.retry = true
	if msg.txnID != 0 {
		s.sendCtrl(mUnblock, msg.addr, node, s.homeOf(msg.addr), msg.txnID, noc.ClassCoherence)
	}
}

// compressibleSanity asserts BlockSize assumptions once at init.
var _ = func() int {
	if compress.BlockSize != 64 {
		panic("cmp: protocol assumes 64-byte lines")
	}
	return 0
}()
