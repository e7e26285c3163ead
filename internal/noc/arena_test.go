package noc

import (
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/fault"
)

// TestReleasePacketOwnership pins the arena's ownership rules: a released
// packet comes back zeroed, a block the caller supplied is never pooled
// while an arena-lent one is, packets the arena did not lend are never
// reclaimed, an armed tracer does not stop reclamation (it receives
// value records, never packets) and neither does an armed fault layer.
func TestReleasePacketOwnership(t *testing.T) {
	n := mustNet(t, DefaultConfig())

	caller := make([]byte, compress.BlockSize)
	p := n.TakePacket().InitData(1, 0, 1, caller, false)
	n.ReleasePacket(p)
	if q := n.TakePacket(); q != p || q.ID != 0 || q.Block != nil || !q.pooled {
		t.Fatalf("released packet not recycled zeroed: %+v", q)
	}
	if b := n.takeBlock(); &b[0] == &caller[0] {
		t.Fatal("arena pooled a block it did not lend")
	}

	lent := n.takeBlock()
	p = n.TakePacket().InitData(2, 0, 1, lent, false)
	p.ownsBlock = true
	n.ReleasePacket(p)
	if b := n.takeBlock(); &b[0] != &lent[0] {
		t.Fatal("arena did not reclaim the block it lent")
	}
	n.TakePacket() // drain the packet released above

	foreign := NewControlPacket(3, 0, 1, ClassRequest)
	n.ReleasePacket(foreign)
	if q := n.TakePacket(); q == foreign {
		t.Fatal("arena reclaimed a packet it did not lend")
	}

	n.SetTracer(NewCountingTracer())
	p = n.TakePacket().InitControl(4, 0, 1, ClassRequest)
	n.ReleasePacket(p)
	if q := n.TakePacket(); q != p {
		t.Fatal("packet not reclaimed while a tracer was armed")
	}

	nf := mustNet(t, faultConfig(fault.Spec{Seed: 1, CreditRate: 0.01}))
	lent = nf.takeBlock()
	p = nf.TakePacket().InitData(5, 0, 1, lent, false)
	p.ownsBlock = true
	nf.ReleasePacket(p)
	if q := nf.TakePacket(); q != p {
		t.Fatal("packet not reclaimed while the fault layer was armed")
	}
	if b := nf.takeBlock(); &b[0] != &lent[0] {
		t.Fatal("block not reclaimed while the fault layer was armed")
	}
}
