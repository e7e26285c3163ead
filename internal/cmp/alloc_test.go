package cmp

import (
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/trace"
)

// stepAllocBound is the steady-state allocation budget of System.Step,
// in heap allocations per simulated cycle. What remains is first-touch
// work (a block's cached content and compressed form, their map
// entries), which thins out as the footprint warms.
const stepAllocBound = 0.5

// TestSystemStepAllocs pins the cycle loop as allocation-free in steady
// state: a 4×4 canneal system warms up in each mode, then a block of
// Steps must stay within stepAllocBound allocations per cycle. CC and
// CNC are the modes whose endpoint conversions schedule delayed
// injections, so all five modes are covered.
func TestSystemStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms five systems")
	}
	const warm, block = 40_000, 4_000
	prof, _ := trace.ByName("canneal")
	for _, mode := range []Mode{Baseline, Ideal, CC, CNC, DISCO} {
		cfg := DefaultConfig(mode, compress.NewDelta(), prof)
		cfg.OpsPerCore = 1 << 30 // never finishes: every Step is steady state
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			sys.Step()
		}
		allocs := testing.AllocsPerRun(3, func() {
			for i := 0; i < block; i++ {
				sys.Step()
			}
		})
		perCycle := allocs / block
		t.Logf("%v: %.3f allocs/cycle", mode, perCycle)
		if perCycle > stepAllocBound {
			t.Errorf("%v: %.3f allocs per Step, want <= %.1f", mode, perCycle, stepAllocBound)
		}
	}
}
