package noc

import (
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestDiscoMeshAllocs pins the DISCO cycle loop as allocation-free in
// steady state: a 4×4 DISCO mesh warms up under DefaultTraffic, then a
// block of generator and network steps must allocate nothing. Packets
// and their blocks recycle through the network's arena, in-flight
// encodings live in their packets' payload buffers and in-network
// decodes in the engine's job.
func TestDiscoMeshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const warm, block = 20_000, 2_000
	for _, alg := range []compress.Algorithm{compress.NewDelta(), compress.NewBDI()} {
		cfg := DefaultConfig()
		dc := disco.DefaultConfig(alg)
		cfg.Disco = &dc
		n := mustNet(t, cfg)
		g := NewTrafficGen(n, DefaultTraffic())
		for i := 0; i < warm; i++ {
			g.Step()
			n.Step()
		}
		allocs := testing.AllocsPerRun(3, func() {
			for i := 0; i < block; i++ {
				g.Step()
				n.Step()
			}
		})
		perCycle := allocs / block
		t.Logf("%s: %.3f allocs/cycle", alg.Name(), perCycle)
		if perCycle != 0 {
			t.Errorf("%s: %.3f allocs per cycle, want 0", alg.Name(), perCycle)
		}
	}
}

// TestDiscoMeshSparseAllocs pins the same zero for a lightly loaded 4×4
// DISCO mesh, where routers drop in and out of the per-cycle active list
// and NIs in and out of the injection bitset from one cycle to the next.
// The mesh warms at the same sparse rate it is measured at: routers and
// engines size their scratch at construction, so no high-water mark has
// to be reached first.
func TestDiscoMeshSparseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const warm, block = 20_000, 2_000
	n := mustNet(t, discoConfig())
	tc := DefaultTraffic()
	tc.InjectionRate = 0.005
	g := NewTrafficGen(n, tc)
	for i := 0; i < warm; i++ {
		g.Step()
		n.Step()
	}
	minActive, maxActive, niFlips := len(n.Routers), 0, 0
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < block; i++ {
			live := n.niLive[0]
			g.Step()
			n.Step()
			if n.niLive[0] != live {
				niFlips++
			}
			minActive = min(minActive, len(n.active))
			maxActive = max(maxActive, len(n.active))
		}
	})
	perCycle := allocs / block
	t.Logf("%.3f allocs/cycle; %d-%d active routers, %d NI bitset changes", perCycle, minActive, maxActive, niFlips)
	if minActive > 0 || maxActive == 0 || niFlips == 0 {
		t.Errorf("load did not toggle the work sets (%d-%d active, %d NI changes)", minActive, maxActive, niFlips)
	}
	if perCycle != 0 {
		t.Errorf("%.3f allocs per cycle, want 0", perCycle)
	}
}
