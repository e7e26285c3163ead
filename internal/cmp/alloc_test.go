package cmp

import (
	"io"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/noc"
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
// injections, so all five modes are covered. Each mode runs bare and
// with a binary tracer attached: tracers receive value records, so
// packets recycle and the traced loop stays allocation-free too.
func TestSystemStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms ten systems")
	}
	const warm, block = 40_000, 4_000
	prof, _ := trace.ByName("canneal")
	for _, mode := range []Mode{Baseline, Ideal, CC, CNC, DISCO} {
		for _, traced := range []bool{false, true} {
			cfg := DefaultConfig(mode, compress.NewDelta(), prof)
			cfg.OpsPerCore = 1 << 30 // never finishes: every Step is steady state
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := mode.String()
			if traced {
				ncfg := sys.Network().Config()
				sys.Network().SetTracer(noc.NewBinaryTracer(io.Discard, ncfg.Nodes()))
				label += " traced"
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
			t.Logf("%s: %.3f allocs/cycle", label, perCycle)
			if perCycle > stepAllocBound {
				t.Errorf("%s: %.3f allocs per Step, want <= %.1f", label, perCycle, stepAllocBound)
			}
		}
	}
}
