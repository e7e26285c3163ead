package noc

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/disco-sim/disco/internal/fault"
)

// busyRouters returns the routers holding or expecting a flit (or with a
// busy engine), in index order: the set Step's active list must equal.
func busyRouters(n *Network) []*Router {
	var out []*Router
	for _, r := range n.Routers {
		if r.busy() {
			out = append(out, r)
		}
	}
	return out
}

// activityCounts records how often the bookkeeping changed during a run,
// so a test can tell a checked property from a vacuous one.
type activityCounts struct {
	niSet, niClear int  // NI bits that turned on / off between boundaries
	highWord       bool // a bit past the first niLive word was set
	sparse         int  // cycles with some, but not all, routers active
}

// checkNIBits asserts that niLive bit i is set exactly while node i's NI
// has a waiting packet or an open stream, that no bit past the last node
// is set, and that the readers built on it (InjectQueueLen, Quiescent)
// agree with a walk over every NI's queue and stream slots.
func checkNIBits(t *testing.T, n *Network, where string) {
	t.Helper()
	nodes := n.cfg.Nodes()
	idle := len(n.pending) == 0
	for _, r := range n.Routers {
		if r.live != 0 {
			idle = false
		}
	}
	for i := range n.ni {
		ni := &n.ni[i]
		streams := 0
		for _, p := range ni.stream {
			if p != nil {
				streams++
			}
		}
		bit := n.niLive[i/64]&(1<<uint(i%64)) != 0
		if want := ni.qlen() > 0 || ni.active > 0; bit != want {
			t.Fatalf("%s: node %d niLive bit %v, want %v (qlen %d, active %d)",
				where, i, bit, want, ni.qlen(), ni.active)
		}
		if got, want := n.InjectQueueLen(i), ni.qlen()+streams; got != want {
			t.Fatalf("%s: node %d InjectQueueLen %d, want %d", where, i, got, want)
		}
		if ni.qlen() > 0 || streams > 0 {
			idle = false
		}
	}
	for b := nodes; b < 64*len(n.niLive); b++ {
		if n.niLive[b/64]&(1<<uint(b%64)) != 0 {
			t.Fatalf("%s: niLive bit %d set past the last node %d", where, b, nodes-1)
		}
	}
	if got := n.Quiescent(); got != idle {
		t.Fatalf("%s: Quiescent() = %v, want %v", where, got, idle)
	}
}

// runActivityTrial drives a randomized load, with a loopback (Src ==
// Dst) inject every seventh cycle, and checks the cycle loop's
// work sets at every commit boundary: the NI bitset against the NI
// queues and streams, and the active list the Step filled against the
// busy routers of the boundary before it (the prologue's arrivals and
// credit restores change no router's busy state).
func runActivityTrial(t *testing.T, cfg Config, tc TrafficConfig, cycles int) (*Network, activityCounts) {
	t.Helper()
	n := mustNet(t, cfg)
	g := NewTrafficGen(n, tc)
	var c activityCounts
	prev := make([]uint64, len(n.niLive))
	countFlips := func() {
		for w := range n.niLive {
			c.niSet += bits.OnesCount64(n.niLive[w] &^ prev[w])
			c.niClear += bits.OnesCount64(prev[w] &^ n.niLive[w])
			if w > 0 && n.niLive[w] != 0 {
				c.highWord = true
			}
			prev[w] = n.niLive[w]
		}
	}
	step := func() {
		want := busyRouters(n)
		n.Step()
		where := fmt.Sprintf("cycle %d", n.Cycle)
		if len(n.active) != len(want) {
			t.Fatalf("%s: %d active routers, want %d", where, len(n.active), len(want))
		}
		for i, r := range want {
			if n.active[i] != r {
				t.Fatalf("%s: active[%d] is router %d, want %d", where, i, n.active[i].id, r.id)
			}
		}
		if len(want) > 0 && len(want) < len(n.Routers) {
			c.sparse++
		}
		checkNIBits(t, n, where)
		countFlips()
	}
	for cycle := 0; cycle < cycles; cycle++ {
		g.Step()
		if cycle%7 == 0 {
			// NI loopback: delivered at once, never queued, so it must
			// leave the node's bit as it was.
			node := cycle % len(n.ni)
			before := n.niLive[node/64]
			n.Inject(n.TakePacket().InitControl(1<<40+uint64(cycle), node, node, ClassRequest))
			if n.niLive[node/64] != before {
				t.Fatalf("cycle %d: loopback inject at node %d changed niLive", n.Cycle, node)
			}
		}
		checkNIBits(t, n, fmt.Sprintf("cycle %d after inject", n.Cycle))
		countFlips()
		step()
	}
	for cycle := 0; !n.Quiescent(); cycle++ {
		if cycle == 200000 {
			t.Fatal("network did not drain")
		}
		step()
	}
	return n, c
}

// TestActivityBookkeeping pins the cycle loop's work sets — the per-cycle
// active-router list and the NI bitset — to their definitions at every
// commit boundary, on a 4×4 DISCO mesh, a 9×9 mesh (81 nodes span two
// bitset words) and a fault-armed mesh (credit drops and payload flips).
func TestActivityBookkeeping(t *testing.T) {
	mesh9 := discoConfig()
	mesh9.K = 9
	for _, c := range []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"disco-4x4", discoConfig(), 0.05},
		{"disco-9x9", mesh9, 0.03},
		{"fault-4x4", faultConfig(fault.Spec{Seed: 5, PayloadRate: 0.05, CreditRate: 0.05, CreditRecovery: 64}), 0.08},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := DefaultTraffic()
			tc.InjectionRate = c.rate
			tc.Seed = 17
			n, got := runActivityTrial(t, c.cfg, tc, 1500)
			t.Logf("%d cycles; NI bits set %d, cleared %d; %d sparse cycles; faults %v", n.Cycle, got.niSet, got.niClear, got.sparse, n.FaultStats())
			if got.niSet == 0 || got.niClear == 0 || got.sparse == 0 {
				t.Fatalf("bookkeeping never toggled: %+v", got)
			}
			if c.cfg.Nodes() > 64 && !got.highWord {
				t.Fatal("no NI past node 63 ever had work: the second bitset word went unchecked")
			}
			if fs := n.FaultStats(); fs != nil && (fs.CreditsDropped == 0 || fs.PayloadFlips == 0) {
				t.Fatalf("fault plane armed but idle: %s", fs)
			}
		})
	}
}
