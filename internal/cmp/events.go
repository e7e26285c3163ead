package cmp

import (
	"github.com/disco-sim/disco/internal/cache"
	"github.com/disco-sim/disco/internal/noc"
)

// evKind enumerates the delayed actions of the protocol. Each is a value
// record in the event queue, not a closure, so scheduling allocates
// nothing (DESIGN.md §12).
type evKind uint8

const (
	// evProbe runs the tag/directory lookup of the transaction at
	// (node, addr) with id txnID.
	evProbe evKind = iota
	// evBankData sends a data grant from home node to peer after the
	// bank access latency (txnRespond). The record carries copies of the
	// transaction's fields: a read grant finishes its txn at once.
	evBankData
	// evMemFill installs a memory fill at home node once the CC/CNC bank
	// compressor is done (homeMemData), then resumes transaction txnID.
	evMemFill
	// evDRAMReturn sends a DRAM read's data from the MC at node back to
	// home peer when the access completes (mcRead).
	evDRAMReturn
	// evInject injects pkt once the CC/CNC endpoint conversion is done.
	evInject
	// evDispatch hands pkt's message to node's handler after the mode's
	// ejection-side latency (onEject).
	evDispatch
)

// event is one scheduled action. Only the fields its kind documents are
// set; none holds a *txn, because a transaction can finish and be
// recycled while an event that served it is still queued.
type event struct {
	cycle uint64
	seq   uint64 // FIFO tie-break for determinism
	kind  evKind
	node  int
	peer  int
	addr  cache.Addr
	txnID uint64
	grant cache.CohState
	dram  uint64 // off-chip cycles (see message.dramCycles)
	coh   uint64 // coherence cycles (see message.cohCycles)
	pkt   *noc.Packet
}

// eventQueue is a deterministic binary min-heap of events ordered by
// (cycle, seq). The pair is unique, so the pop order is the same for any
// correct heap.
type eventQueue struct {
	items []event
	seq   uint64
}

// Len is the number of pending events.
func (q *eventQueue) Len() int { return len(q.items) }

// before orders a ahead of b.
func before(a, b *event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// push enqueues ev at ev.cycle, after every event already due then.
func (q *eventQueue) push(ev event) {
	q.seq++
	ev.seq = q.seq
	//lint:ignore hotalloc the heap's backing array grows to the peak number of pending events once, then is reused
	q.items = append(q.items, ev)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&ev, &q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = ev
}

// popDue removes and returns the earliest event due at or before cycle;
// false when there is none.
func (q *eventQueue) popDue(cycle uint64) (event, bool) {
	if len(q.items) == 0 || q.items[0].cycle > cycle {
		return event{}, false
	}
	top := q.items[0]
	n := len(q.items) - 1
	last := q.items[n]
	q.items[n] = event{} // drop the packet reference
	q.items = q.items[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && before(&q.items[r], &q.items[child]) {
				child = r
			}
			if !before(&q.items[child], &last) {
				break
			}
			q.items[i] = q.items[child]
			i = child
		}
		q.items[i] = last
	}
	return top, true
}

// runEvents fires every event due at or before the current cycle, in
// order, including events those handlers schedule for this cycle.
func (s *System) runEvents() {
	for {
		ev, ok := s.events.popDue(s.now)
		if !ok {
			return
		}
		s.fire(ev)
	}
}

// fire performs one event.
func (s *System) fire(ev event) {
	switch ev.kind {
	case evProbe:
		s.txnProbe(s.liveTxn(ev.node, ev.addr, ev.txnID))
	case evBankData:
		s.bankAccesses++
		s.bankBytes += uint64(s.storedSize(ev.addr))
		s.sendDataCoh(mData, ev.addr, ev.node, ev.peer, ev.txnID, ev.grant, srcBank, ev.dram, ev.coh)
	case evMemFill:
		s.installFill(s.liveTxn(ev.node, ev.addr, ev.txnID))
	case evDRAMReturn:
		s.sendDataDram(mMemData, ev.addr, ev.node, ev.peer, ev.txnID, cache.Invalid, srcMC, ev.dram)
	case evInject:
		s.net.Inject(ev.pkt)
	case evDispatch:
		msg := ev.pkt.Meta.(*message)
		s.dispatch(ev.node, msg)
		s.net.ReleasePacket(ev.pkt)
		if !msg.parked {
			s.releaseMessage(msg)
		}
	}
}
