package noc

import (
	"fmt"
	"strings"

	"github.com/disco-sim/disco/internal/tracefmt"
)

// This file is the network's structured diagnostic surface, built for the
// cmp progress watchdog: when a run stops making forward progress the
// watchdog captures a Snapshot, attaches it to the *StallError, and dumps
// the in-flight packets to the tracer — so a wedged simulation produces a
// forensic picture instead of a bare timeout.

// VCSnapshot is the state of one occupied input virtual channel.
type VCSnapshot struct {
	Port        string `json:"port"`
	VC          int    `json:"vc"`
	PacketID    uint64 `json:"packet"`
	Src         int    `json:"src"`
	Dst         int    `json:"dst"`
	Class       string `json:"class"`
	State       string `json:"state"`
	Lock        string `json:"lock,omitempty"`
	OutPort     string `json:"out_port,omitempty"`
	Arrived     int    `json:"arrived"`
	Ready       int    `json:"ready"`
	Sent        int    `json:"sent"`
	Stored      int    `json:"stored"`
	Reserved    int    `json:"reserved,omitempty"`
	LostCredits int    `json:"lost_credits,omitempty"`
	FlitCount   int    `json:"flits"`
	WaitCycles  uint64 `json:"wait_cycles"`
}

// EngineSnapshot is the state of one busy DISCO engine.
type EngineSnapshot struct {
	JobKind    string `json:"job"`
	JobState   string `json:"state"`
	PacketID   uint64 `json:"packet"`
	Faulted    bool   `json:"faulted,omitempty"`
	BusyCycles uint64 `json:"busy_cycles"`
}

// RouterSnapshot is the state of one router that holds work. Routers that
// are completely idle are omitted from the Snapshot.
type RouterSnapshot struct {
	ID               int             `json:"id"`
	BreakerOpen      bool            `json:"breaker_open,omitempty"`
	BreakerOpenUntil uint64          `json:"breaker_open_until,omitempty"`
	Engine           *EngineSnapshot `json:"engine,omitempty"`
	VCs              []VCSnapshot    `json:"vcs,omitempty"`
}

// Snapshot is a structured picture of everything in flight: per-router VC
// occupancy and credits, engine and breaker state, link flits, and NI
// backlogs. It serializes to JSON and renders with String.
type Snapshot struct {
	Cycle       uint64           `json:"cycle"`
	Injected    uint64           `json:"injected"`
	Ejected     uint64           `json:"ejected"`
	LinkFlits   int              `json:"link_flits_in_flight"`
	NIBacklog   map[int]int      `json:"ni_backlog,omitempty"`
	Routers     []RouterSnapshot `json:"routers,omitempty"`
	Fault       *FaultStats      `json:"fault,omitempty"`
	PacketCount int              `json:"packets_in_network"`
}

func (s vcState) String() string {
	switch s {
	case vcFree:
		return "free"
	case vcRoute:
		return "route"
	case vcVA:
		return "va"
	case vcActive:
		return "active"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

func (l lockState) String() string {
	switch l {
	case lockNone:
		return ""
	case lockPending:
		return "pending"
	case lockCommitted:
		return "committed"
	}
	return fmt.Sprintf("lock(%d)", int(l))
}

// Snapshot captures the network's in-flight state for diagnostics. It is
// read-only and safe to take at any cycle boundary.
func (n *Network) Snapshot() *Snapshot {
	s := &Snapshot{
		Cycle:     n.Cycle,
		Injected:  n.stats.Injected,
		Ejected:   n.stats.Ejected,
		LinkFlits: len(n.pending),
		Fault:     n.FaultStats(),
	}
	for node := range n.ni {
		if b := n.InjectQueueLen(node); b > 0 {
			if s.NIBacklog == nil {
				s.NIBacklog = make(map[int]int)
			}
			s.NIBacklog[node] = b
		}
	}
	seen := make(map[uint64]bool)
	for _, r := range n.Routers {
		rs := RouterSnapshot{
			ID:               r.id,
			BreakerOpen:      r.breakerOpen,
			BreakerOpenUntil: r.breakerOpenUntil,
		}
		if r.engine != nil && r.engine.Busy() {
			j := r.engine.Current()
			rs.Engine = &EngineSnapshot{
				JobKind:    j.Kind.String(),
				JobState:   j.State.String(),
				PacketID:   j.PacketID,
				Faulted:    j.Faulted,
				BusyCycles: r.engine.BusyCycles,
			}
		}
		r.eachVC(func(p Port, v int, e *vcBuf) {
			if e.pkt == nil && e.reserved == 0 && e.lostCredits == 0 {
				return
			}
			vs := VCSnapshot{
				Port:        p.String(),
				VC:          v,
				Arrived:     e.arrived,
				Ready:       e.ready,
				Sent:        e.sent,
				Stored:      e.stored,
				Reserved:    e.reserved,
				LostCredits: e.lostCredits,
				State:       e.state.String(),
				Lock:        e.lock.String(),
			}
			if e.pkt != nil {
				vs.PacketID = e.pkt.ID
				vs.Src = e.pkt.Src
				vs.Dst = e.pkt.Dst
				vs.Class = e.pkt.Class.String()
				vs.FlitCount = e.pkt.FlitCount
				vs.WaitCycles = e.waitCycles
				if e.state >= vcVA {
					vs.OutPort = e.outPort.String()
				}
				if !seen[e.pkt.ID] {
					seen[e.pkt.ID] = true
					s.PacketCount++
				}
			}
			rs.VCs = append(rs.VCs, vs)
		})
		if rs.Engine != nil || len(rs.VCs) > 0 || rs.BreakerOpen {
			s.Routers = append(s.Routers, rs)
		}
	}
	return s
}

// Summary is a one-line headline for logs.
func (s *Snapshot) Summary() string {
	return fmt.Sprintf("cycle %d: %d packet(s) in network, %d link flit(s) in flight, %d router(s) occupied, injected %d / ejected %d",
		s.Cycle, s.PacketCount, s.LinkFlits, len(s.Routers), s.Injected, s.Ejected)
}

// String renders the full diagnostic picture, one router per stanza.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network snapshot @ %s\n", s.Summary())
	if len(s.NIBacklog) > 0 {
		fmt.Fprintf(&b, "  NI backlog:")
		for node := 0; node < 4096; node++ { // deterministic order over map
			if q, ok := s.NIBacklog[node]; ok {
				fmt.Fprintf(&b, " n%d=%d", node, q)
			}
		}
		b.WriteByte('\n')
	}
	for _, r := range s.Routers {
		fmt.Fprintf(&b, "  router %d", r.ID)
		if r.BreakerOpen {
			fmt.Fprintf(&b, " [breaker OPEN until cycle %d]", r.BreakerOpenUntil)
		}
		b.WriteByte('\n')
		if r.Engine != nil {
			fmt.Fprintf(&b, "    engine: %s pkt=%d state=%s faulted=%v busy=%d\n",
				r.Engine.JobKind, r.Engine.PacketID, r.Engine.JobState,
				r.Engine.Faulted, r.Engine.BusyCycles)
		}
		for _, v := range r.VCs {
			fmt.Fprintf(&b, "    %s/vc%d:", v.Port, v.VC)
			if v.PacketID != 0 || v.Class != "" {
				fmt.Fprintf(&b, " pkt=%d %d->%d %s flits=%d", v.PacketID, v.Src, v.Dst, v.Class, v.FlitCount)
			}
			fmt.Fprintf(&b, " state=%s", v.State)
			if v.Lock != "" {
				fmt.Fprintf(&b, " lock=%s", v.Lock)
			}
			if v.OutPort != "" {
				fmt.Fprintf(&b, " out=%s", v.OutPort)
			}
			fmt.Fprintf(&b, " arr=%d rdy=%d sent=%d stored=%d", v.Arrived, v.Ready, v.Sent, v.Stored)
			if v.Reserved > 0 {
				fmt.Fprintf(&b, " resv=%d", v.Reserved)
			}
			if v.LostCredits > 0 {
				fmt.Fprintf(&b, " lost-credits=%d", v.LostCredits)
			}
			if v.WaitCycles > 0 {
				fmt.Fprintf(&b, " waited=%d", v.WaitCycles)
			}
			b.WriteByte('\n')
		}
	}
	if s.Fault != nil {
		fmt.Fprintf(&b, "  fault: %s\n", s.Fault)
	}
	return b.String()
}

// DumpStall emits one KindStall trace event per distinct in-flight packet,
// so trace consumers (discotrace, lifetime tracking) see exactly which
// packets were wedged when the watchdog fired.
func (n *Network) DumpStall() {
	seen := make(map[uint64]bool)
	for _, r := range n.Routers {
		r.eachVC(func(_ Port, _ int, e *vcBuf) {
			if e.pkt == nil || seen[e.pkt.ID] {
				return
			}
			seen[e.pkt.ID] = true
			n.trace(r.id, tracefmt.KindStall, e.pkt)
		})
	}
}
