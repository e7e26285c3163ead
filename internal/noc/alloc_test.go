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
