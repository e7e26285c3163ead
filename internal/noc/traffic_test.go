package noc

import (
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
)

func TestTrafficPatternsDest(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	cfg := DefaultTraffic()
	cfg.Pattern = Transpose
	g := NewTrafficGen(n, cfg)
	if d := g.dest(1); d != 4 { // (1,0) -> (0,1) = node 4
		t.Errorf("transpose dest(1) = %d, want 4", d)
	}
	cfg.Pattern = BitComplement
	g = NewTrafficGen(n, cfg)
	if d := g.dest(0); d != 15 {
		t.Errorf("bitcomp dest(0) = %d, want 15", d)
	}
	cfg.Pattern = Hotspot
	cfg.HotNode = 5
	g = NewTrafficGen(n, cfg)
	hot := 0
	for i := 0; i < 1000; i++ {
		if g.dest(0) == 5 {
			hot++
		}
	}
	if hot < 400 {
		t.Errorf("hotspot share %d/1000 too low", hot)
	}
}

func TestTrafficGenDrains(t *testing.T) {
	cfg := DefaultConfig()
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	n := mustNet(t, cfg)
	g := NewTrafficGen(n, DefaultTraffic())
	for i := 0; i < 3000; i++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(300000) {
		t.Fatal("network did not drain")
	}
	s := n.Stats()
	if s.Injected != g.Generated || s.Ejected != s.Injected {
		t.Errorf("conservation: gen=%d inj=%d ej=%d", g.Generated, s.Injected, s.Ejected)
	}
	if g.Generated == 0 {
		t.Error("no packets generated")
	}
}

func TestTrafficLatencyRisesWithLoad(t *testing.T) {
	lat := func(rate float64) float64 {
		n := mustNet(t, DefaultConfig())
		cfg := DefaultTraffic()
		cfg.InjectionRate = rate
		g := NewTrafficGen(n, cfg)
		for i := 0; i < 5000; i++ {
			g.Step()
			n.Step()
		}
		n.RunUntilQuiescent(500000)
		s := n.Stats()
		return s.PacketLatency.Mean()
	}
	low, high := lat(0.005), lat(0.06)
	if high <= low {
		t.Errorf("latency should rise with load: %.1f -> %.1f", low, high)
	}
}

func TestFlitHopsByClassResponseDominates(t *testing.T) {
	// Section 3.3C: response (data) packets carry 9 flits vs 1 for
	// control, so they dominate link bandwidth even at equal packet
	// counts.
	n := mustNet(t, DefaultConfig())
	cfg := DefaultTraffic()
	cfg.DataFraction = 0.5
	g := NewTrafficGen(n, cfg)
	for i := 0; i < 4000; i++ {
		g.Step()
		n.Step()
	}
	n.RunUntilQuiescent(200000)
	s := n.Stats()
	resp := s.FlitHopsByClass[ClassResponse]
	ctl := s.FlitHopsByClass[ClassRequest] + s.FlitHopsByClass[ClassCoherence]
	if resp <= 2*ctl {
		t.Errorf("response flits (%d) should dominate control flits (%d)", resp, ctl)
	}
	if resp+ctl != s.FlitHops {
		t.Errorf("class split (%d) does not sum to total (%d)", resp+ctl, s.FlitHops)
	}
}

func TestSweepCurveShape(t *testing.T) {
	cfg := DefaultSweep()
	cfg.Rates = []float64{0.005, 0.04}
	cfg.WarmCycles = 4000
	pts, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Saturated || pts[0].Saturated {
		t.Fatal("moderate loads should not saturate")
	}
	if pts[1].AvgLatency <= pts[0].AvgLatency {
		t.Errorf("latency should grow with load: %.1f -> %.1f", pts[0].AvgLatency, pts[1].AvgLatency)
	}
	if pts[0].Throughput <= 0 {
		t.Error("throughput missing")
	}
	s := FormatSweep(pts)
	if s == "" || !containsAll(s, "rate", "#") {
		t.Errorf("FormatSweep output malformed:\n%s", s)
	}
}

func TestSweepSaturationDetected(t *testing.T) {
	cfg := DefaultSweep()
	cfg.Traffic.Pattern = Hotspot
	cfg.Traffic.HotNode = 0
	cfg.Rates = []float64{0.3}
	cfg.WarmCycles = 6000
	cfg.DrainBudget = 8000 // deliberately tight
	pts, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pts[0].Saturated {
		t.Error("extreme hotspot load should be flagged saturated")
	}
	if out := FormatSweep(pts); !containsAll(out, "SATURATED") {
		t.Error("saturated point not rendered")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
