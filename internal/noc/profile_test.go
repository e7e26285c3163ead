package noc

import (
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/obs"
)

// runProfiledLoad drives the seed-42 load with a profiler attached
// (nil p runs unprofiled), returning the text trace for identity
// comparison.
func runProfiledLoad(t *testing.T, p *obs.PhaseProfiler) string {
	t.Helper()
	cfg := discoConfig()
	tc := DefaultTraffic()
	tc.Seed, tc.InjectionRate = 42, 0.06
	n := mustNet(t, cfg)
	n.AttachProfiler(p)
	var sb strings.Builder
	n.SetTracer(&WriterTracer{W: &sb})
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 800; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	return sb.String()
}

// TestProfilerIsPurelyObservational is the engine-level half of the
// obs byte-identity gate: the same load traces identically with and
// without a profiler attached, and every phase accumulates time.
func TestProfilerIsPurelyObservational(t *testing.T) {
	want := runProfiledLoad(t, nil)
	p := obs.NewPhaseProfiler(1)
	if got := runProfiledLoad(t, p); got != want {
		diffTraces(t, "profiled", want, got)
	}
	if p.Steps() == 0 {
		t.Error("profiler counted no steps")
	}
	for _, ph := range obs.Phases() {
		if p.TotalNS(ph) <= 0 {
			t.Errorf("phase %s accumulated nothing", ph)
		}
	}
}
