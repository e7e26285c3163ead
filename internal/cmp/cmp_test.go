package cmp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/trace"
)

// quickCfg returns a fast configuration for protocol tests.
func quickCfg(mode Mode, bench string) Config {
	prof, ok := trace.ByName(bench)
	if !ok {
		panic("unknown bench " + bench)
	}
	cfg := DefaultConfig(mode, compress.NewDelta(), prof)
	cfg.OpsPerCore = 1200
	cfg.WarmupOps = 800
	return cfg
}

// run executes a config or fails the test.
func run(t *testing.T, cfg Config) Results {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		Baseline: "baseline", Ideal: "ideal", CC: "cc", CNC: "cnc", DISCO: "disco",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should still print")
	}
}

func TestConfigValidation(t *testing.T) {
	prof, _ := trace.ByName("vips")
	good := DefaultConfig(DISCO, compress.NewDelta(), prof)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Algorithm = nil },
		func(c *Config) { c.K = 1 },
		func(c *Config) { c.MCNode = 99 },
		func(c *Config) { c.OpsPerCore = 0 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.Profile.ZipfS = 0.5 },
	}
	for i, mut := range cases {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Baseline does not need an algorithm.
	b := DefaultConfig(Baseline, nil, prof)
	if err := b.Validate(); err != nil {
		t.Errorf("baseline without algorithm rejected: %v", err)
	}
}

func TestTagFactorByMode(t *testing.T) {
	prof, _ := trace.ByName("vips")
	b := DefaultConfig(Baseline, nil, prof)
	if b.tagFactor() != 1 {
		t.Error("baseline tag factor should be 1")
	}
	d := DefaultConfig(DISCO, compress.NewDelta(), prof)
	if d.tagFactor() != 2 {
		t.Error("compressed-mode tag factor should be 2")
	}
	c := DefaultConfig(DISCO, compress.NewDelta(), prof)
	c.TagFactor = 4
	if c.tagFactor() != 4 {
		t.Error("explicit tag factor should win")
	}
}

func TestAllModesComplete(t *testing.T) {
	for _, mode := range []Mode{Baseline, Ideal, CC, CNC, DISCO} {
		r := run(t, quickCfg(mode, "bodytrack"))
		if r.Cycles == 0 || r.Misses == 0 {
			t.Errorf("%v: empty results %+v", mode, r)
		}
		if r.AvgMissLatency <= 0 || r.AvgMissTotal < r.AvgMissLatency {
			t.Errorf("%v: inconsistent latencies on=%f total=%f", mode, r.AvgMissLatency, r.AvgMissTotal)
		}
		if r.Net.Injected != r.Net.Ejected {
			t.Errorf("%v: packet conservation violated: %d != %d", mode, r.Net.Injected, r.Net.Ejected)
		}
		if r.String() == "" {
			t.Error("empty summary")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, quickCfg(DISCO, "ferret"))
	b := run(t, quickCfg(DISCO, "ferret"))
	if a.Cycles != b.Cycles || a.AvgMissLatency != b.AvgMissLatency ||
		a.Net.FlitHops != b.Net.FlitHops || a.Energy.Total() != b.Energy.Total() {
		t.Errorf("simulation not deterministic:\n%s\n%s", a, b)
	}
}

func TestNoLeftoverTransactions(t *testing.T) {
	cfg := quickCfg(DISCO, "vips")
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Drain the network and the event queue: no transaction should be
	// stuck afterwards.
	for i := 0; i < 200000 && (!sys.net.Quiescent() || sys.events.Len() > 0); i++ {
		sys.Step()
	}
	for home, m := range sys.txns {
		for addr, tx := range m {
			t.Errorf("home %d: leftover txn on %x (phase %d)", home, uint64(addr), tx.phase)
		}
	}
}

func TestModeCounters(t *testing.T) {
	base := run(t, quickCfg(Baseline, "freqmine"))
	if base.EndpointComp != 0 || base.EndpointDecomp != 0 || base.Net.Compressions != 0 {
		t.Error("baseline must not compress anything")
	}
	ideal := run(t, quickCfg(Ideal, "freqmine"))
	if ideal.EndpointComp != 0 || ideal.EndpointDecomp != 0 {
		t.Error("ideal conversions must be free (uncounted)")
	}
	cc := run(t, quickCfg(CC, "freqmine"))
	if cc.EndpointComp == 0 || cc.EndpointDecomp == 0 {
		t.Error("CC must pay bank-side conversions")
	}
	if cc.Net.Compressions != 0 {
		t.Error("CC has no in-network engines")
	}
	cnc := run(t, quickCfg(CNC, "freqmine"))
	if cnc.EndpointComp <= cc.EndpointComp {
		t.Error("CNC adds NI compressions on top of CC's")
	}
	d := run(t, quickCfg(DISCO, "freqmine"))
	if d.Net.Compressions == 0 {
		t.Error("DISCO should compress some packets in-network")
	}
	if d.ResidualOps == 0 {
		t.Error("DISCO should also pay some residual conversions")
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	base := run(t, quickCfg(Baseline, "freqmine"))
	ideal := run(t, quickCfg(Ideal, "freqmine"))
	if ideal.Net.FlitHops >= base.Net.FlitHops {
		t.Errorf("compressed NoC should move fewer flits: %d vs %d",
			ideal.Net.FlitHops, base.Net.FlitHops)
	}
}

func TestCompressedCapacityReducesL2Misses(t *testing.T) {
	// streamcluster's footprint exceeds the LLC; compression (2x tags +
	// segmented array) must cut L2 misses vs the uncompressed baseline.
	cfgB := quickCfg(Baseline, "streamcluster")
	cfgB.OpsPerCore, cfgB.WarmupOps = 2500, 2500
	base := run(t, cfgB)
	cfgI := quickCfg(Ideal, "streamcluster")
	cfgI.OpsPerCore, cfgI.WarmupOps = 2500, 2500
	ideal := run(t, cfgI)
	if ideal.L2Misses >= base.L2Misses {
		t.Errorf("compressed LLC should miss less: %d vs %d", ideal.L2Misses, base.L2Misses)
	}
}

func TestLatencyOrderingIdealDiscoCC(t *testing.T) {
	// The paper's headline shape (Fig. 5): Ideal <= DISCO < CC on
	// compressible workloads. Allow a hair of noise on the Ideal bound.
	cfg := quickCfg(Ideal, "canneal")
	cfg.OpsPerCore, cfg.WarmupOps = 3000, 1500
	ideal := run(t, cfg)
	cfg.Mode = DISCO
	d := run(t, cfg)
	cfg.Mode = CC
	cc := run(t, cfg)
	if d.AvgMissLatency >= cc.AvgMissLatency {
		t.Errorf("DISCO (%.1f) should beat CC (%.1f)", d.AvgMissLatency, cc.AvgMissLatency)
	}
	if d.AvgMissLatency < ideal.AvgMissLatency*0.99 {
		t.Errorf("DISCO (%.1f) cannot beat Ideal (%.1f)", d.AvgMissLatency, ideal.AvgMissLatency)
	}
}

func TestEnergyOrderingDiscoBeatsBaseline(t *testing.T) {
	// Fig. 7 shape: DISCO total energy below the uncompressed baseline.
	cfg := quickCfg(Baseline, "canneal")
	cfg.OpsPerCore, cfg.WarmupOps = 3000, 1500
	base := run(t, cfg)
	cfg.Mode = DISCO
	cfg.Algorithm = compress.NewDelta()
	d := run(t, cfg)
	if d.Energy.Total() >= base.Energy.Total() {
		t.Errorf("DISCO energy %.0f should undercut baseline %.0f",
			d.Energy.Total(), base.Energy.Total())
	}
}

func TestDiscoOverrideConfig(t *testing.T) {
	cfg := quickCfg(DISCO, "vips")
	dc := disco.DefaultConfig(cfg.Algorithm)
	dc.LowPriorityRule = false
	dc.NonBlocking = false
	cfg.Disco = &dc
	r := run(t, cfg)
	if r.Cycles == 0 {
		t.Error("override run failed")
	}
}

func TestSC2TrainedAutomatically(t *testing.T) {
	prof, _ := trace.ByName("dedup")
	sc2 := compress.NewSC2()
	cfg := DefaultConfig(CC, sc2, prof)
	cfg.OpsPerCore, cfg.WarmupOps = 500, 200
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sc2.Trained() {
		t.Error("system should train SC2 at construction")
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEightByEightCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("8x8 run is slow")
	}
	cfg := quickCfg(DISCO, "bodytrack")
	cfg.K = 8
	cfg.OpsPerCore, cfg.WarmupOps = 600, 400
	r := run(t, cfg)
	if r.Cycles == 0 || r.Net.Injected != r.Net.Ejected {
		t.Errorf("8x8 run inconsistent: %s", r)
	}
}

func TestTwoByTwoCompletes(t *testing.T) {
	cfg := quickCfg(DISCO, "bodytrack")
	cfg.K = 2
	r := run(t, cfg)
	if r.Cycles == 0 {
		t.Error("2x2 run failed")
	}
}

func TestAllBenchmarksRunDisco(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep is slow")
	}
	for _, name := range trace.Names() {
		cfg := quickCfg(DISCO, name)
		cfg.OpsPerCore, cfg.WarmupOps = 800, 400
		r := run(t, cfg)
		if r.Misses == 0 {
			t.Errorf("%s: no misses recorded", name)
		}
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 5, node: 5})
	q.push(event{cycle: 1, node: 1})
	q.push(event{cycle: 3, node: 30})
	q.push(event{cycle: 3, node: 31}) // FIFO within a cycle
	var got []int
	drain := func(cycle uint64) {
		for {
			ev, ok := q.popDue(cycle)
			if !ok {
				return
			}
			got = append(got, ev.node)
		}
	}
	drain(2)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("popDue(2) returned %v", got)
	}
	drain(10)
	want := []int{1, 30, 31, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left after draining", q.Len())
	}
}

// TestEventQueueMatchesSortedOrder pushes a pseudorandom mix of due
// cycles, interleaved with pops, and checks that events come out in
// (cycle, push order) — the order the closure heap it replaced used.
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	var q eventQueue
	rng := rand.New(rand.NewSource(3))
	type key struct{ cycle, seq uint64 }
	var pushed, popped []key
	now := uint64(0)
	for step := 0; step < 5000; step++ {
		for i := rng.Intn(4); i > 0; i-- {
			c := now + uint64(rng.Intn(40))
			q.push(event{cycle: c})
			pushed = append(pushed, key{c, q.seq})
		}
		for {
			ev, ok := q.popDue(now)
			if !ok {
				break
			}
			if ev.cycle > now {
				t.Fatalf("popDue(%d) returned an event due at %d", now, ev.cycle)
			}
			popped = append(popped, key{ev.cycle, ev.seq})
		}
		now++
	}
	for {
		ev, ok := q.popDue(^uint64(0))
		if !ok {
			break
		}
		popped = append(popped, key{ev.cycle, ev.seq})
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d of %d events", len(popped), len(pushed))
	}
	for i := 1; i < len(popped); i++ {
		a, b := popped[i-1], popped[i]
		if a.cycle > b.cycle || (a.cycle == b.cycle && a.seq > b.seq) {
			t.Fatalf("events %d,%d out of order: %v then %v", i-1, i, a, b)
		}
	}
}

func TestReplayStreamsDriveSystem(t *testing.T) {
	prof, _ := trace.ByName("vips")
	// Record short synthetic traces, then replay them through the system.
	streams := make([]trace.Stream, 16)
	for i := range streams {
		g := trace.NewGenerator(&prof, i, 99)
		streams[i] = trace.NewReplay(trace.Record(g, 400))
	}
	cfg := DefaultConfig(DISCO, compress.NewDelta(), prof)
	cfg.Streams = streams
	cfg.OpsPerCore, cfg.WarmupOps = 800, 200 // forces the replays to loop
	r := run(t, cfg)
	if r.Misses == 0 {
		t.Error("replayed run recorded no misses")
	}
	// Stream count must match the core count.
	cfg.Streams = streams[:3]
	if _, err := New(cfg); err == nil {
		t.Error("mismatched stream count should be rejected")
	}
}

func TestMultiMCRelievesChannelPressure(t *testing.T) {
	// Four memory controllers at the mesh corners vs one: same workload,
	// strictly fewer DRAM stalls per access and no correctness change.
	cfg1 := quickCfg(Baseline, "streamcluster")
	cfg1.OpsPerCore, cfg1.WarmupOps = 2000, 1000
	one := run(t, cfg1)
	cfg4 := cfg1
	cfg4.ExtraMCNodes = []int{3, 12, 15}
	four := run(t, cfg4)
	if four.DramAccesses == 0 || one.DramAccesses == 0 {
		t.Fatal("no DRAM traffic")
	}
	// Both runs execute the same measured work.
	if four.Misses == 0 || one.Misses == 0 {
		t.Fatal("no misses recorded")
	}
	// Total end-to-end latency should improve (or at least not regress
	// meaningfully) with 4 channels.
	if four.AvgMissTotal > one.AvgMissTotal*1.02 {
		t.Errorf("4 MCs (%.1f) should not be slower than 1 MC (%.1f)",
			four.AvgMissTotal, one.AvgMissTotal)
	}
}

func TestMultiMCValidation(t *testing.T) {
	cfg := quickCfg(Baseline, "vips")
	cfg.ExtraMCNodes = []int{0} // duplicates MCNode
	if _, err := New(cfg); err == nil {
		t.Error("duplicate MC node should be rejected")
	}
	cfg.ExtraMCNodes = []int{99}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range MC node should be rejected")
	}
}

func TestInvariantsHoldAfterDrain(t *testing.T) {
	for _, bench := range []string{"canneal", "vips"} {
		cfg := quickCfg(DISCO, bench)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if !sys.Drain(500000) {
			t.Fatalf("%s: system did not drain", bench)
		}
		if viol := sys.CheckInvariants(); len(viol) != 0 {
			for _, v := range viol[:minInt(len(viol), 10)] {
				t.Errorf("%s: %s", bench, v)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPrefetcherReducesDemandMisses(t *testing.T) {
	base := quickCfg(Baseline, "streamcluster")
	base.OpsPerCore, base.WarmupOps = 2000, 1000
	off := run(t, base)
	cfgP := base
	cfgP.PrefetchDegree = 4
	on := run(t, cfgP)
	if on.PrefetchIssued == 0 {
		t.Fatal("prefetcher issued nothing")
	}
	if on.PrefetchUseful == 0 {
		t.Error("no prefetch was ever useful")
	}
	// Demand L2 misses must drop (prefetches themselves are not counted
	// as demand misses).
	if on.L2Misses >= off.L2Misses {
		t.Errorf("prefetching did not reduce demand misses: %d vs %d", on.L2Misses, off.L2Misses)
	}
	// But total DRAM traffic grows (speculation is not free).
	if on.DramAccesses <= off.DramAccesses {
		t.Errorf("prefetching should add DRAM traffic: %d vs %d", on.DramAccesses, off.DramAccesses)
	}
}

func TestPrefetchTransactionsComplete(t *testing.T) {
	cfg := quickCfg(DISCO, "vips")
	cfg.PrefetchDegree = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !sys.Drain(500000) {
		t.Fatal("no drain with prefetching")
	}
	if viol := sys.CheckInvariants(); len(viol) != 0 {
		t.Errorf("invariants violated with prefetching: %v", viol[:minInt(len(viol), 5)])
	}
}

func TestPerTileStats(t *testing.T) {
	cfg := quickCfg(DISCO, "bodytrack")
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	ts := sys.PerTile()
	if len(ts) != 16 {
		t.Fatalf("tiles = %d", len(ts))
	}
	var l1m, bkm uint64
	mcSeen := false
	for _, s := range ts {
		l1m += s.L1Misses
		bkm += s.BankMisses
		if s.IsMC {
			mcSeen = true
		}
	}
	if l1m == 0 || bkm == 0 {
		t.Error("per-tile counters empty")
	}
	if !mcSeen {
		t.Error("MC tile not flagged")
	}
	out := FormatPerTile(ts)
	if !strings.Contains(out, "[MC]") || !strings.Contains(out, "tile") {
		t.Errorf("FormatPerTile malformed:\n%s", out)
	}
}
