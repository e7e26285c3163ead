// Package fixture exercises the hotalloc analyzer's full-system root:
// (*System).Step drives cores, the protocol and its event queue every
// simulated cycle, so heap allocations reachable from it are findings
// unless recycled, escaping, on an init path, or justified.
package fixture

// message mimics a recycled protocol message.
type message struct {
	addr uint64
	next *message
}

// event mimics a typed event record.
type event struct {
	cycle uint64
	msg   *message
}

// System mimics the full-system simulator.
type System struct {
	events   []event
	fns      []func()
	freeMsgs *message
	waiters  []*message
	arena    []byte
}

// NewSystem is an init path: construction may allocate freely.
func NewSystem() *System { return &System{events: make([]event, 0, 16)} }

// Step is the hot-path root.
func (s *System) Step() {
	m := s.takeMessage()
	s.schedule(event{cycle: 1, msg: m})
	s.scheduleClosure(m)
	s.sendFresh()
	s.park(m)
	s.drain()
	s.releaseMessage(m)
	s.chunk()
}

// takeMessage pops the free list (allowed: the empty-list fallback
// escapes as the function's product).
func (s *System) takeMessage() *message {
	m := s.freeMsgs
	if m == nil {
		return &message{}
	}
	s.freeMsgs = m.next
	m.next = nil
	return m
}

// releaseMessage pushes onto the intrusive free list (allowed: no
// allocation at all).
func (s *System) releaseMessage(m *message) {
	*m = message{next: s.freeMsgs}
	s.freeMsgs = m
}

// schedule appends a value record to a queue that is never reset
// (forbidden without a justification).
func (s *System) schedule(ev event) {
	s.events = append(s.events, ev) // want "heap allocation on the hot path"
}

// scheduleClosure queues a capturing closure per event (forbidden: the
// design typed event records replace).
func (s *System) scheduleClosure(m *message) {
	f := func() { m.addr++ } // want "heap allocation on the hot path"
	s.fns = append(s.fns, f) // want "heap allocation on the hot path"
}

// sendFresh builds a message per send instead of recycling one
// (forbidden).
func (s *System) sendFresh() {
	m := &message{addr: 1} // want "heap allocation on the hot path"
	s.freeMsgs = m
}

// park queues behind a transaction whose waiters array drain resets
// (allowed: recycled scratch).
func (s *System) park(m *message) {
	s.waiters = append(s.waiters, m)
}

// drain empties the waiters and keeps their array.
func (s *System) drain() {
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// chunk is a justified first-touch allocation (allowed: suppressed).
func (s *System) chunk() {
	if len(s.arena) == cap(s.arena) {
		//lint:ignore hotalloc one chunk per 256 first-touched blocks, never freed
		s.arena = make([]byte, 0, 256)
	}
}

// Other has a Step that is not a root: only (*System).Step is.
type Other struct{ items []int }

// Step allocates freely (not reported: not the cmp root).
func (o *Other) Step() {
	o.items = append(o.items, 1)
}
