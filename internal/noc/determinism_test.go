package noc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/metrics"
)

// runSeededLoad drives a DISCO-equipped network under a seeded synthetic
// load and returns the full event trace plus the final counters. Two
// calls with the same seed must be indistinguishable: the simulator has
// no other entropy source (enforced by the nodeterminism analyzer).
func runSeededLoad(t *testing.T, seed int64) (string, Stats) {
	t.Helper()
	return runSeededLoadCfg(t, discoConfig(), seed)
}

// runSeededLoadCfg is runSeededLoad with an explicit network config, so
// fault-injection tests can reuse the same deterministic load.
func runSeededLoadCfg(t *testing.T, cfg Config, seed int64) (string, Stats) {
	t.Helper()
	n := mustNet(t, cfg)
	var sb strings.Builder
	n.SetTracer(&WriterTracer{W: &sb})
	tc := DefaultTraffic()
	tc.Seed = seed
	tc.InjectionRate = 0.05
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 2000; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	return sb.String(), n.Stats()
}

// TestSameSeedByteIdenticalTrace is the determinism regression gate:
// identical seeds must give byte-identical traces and equal statistics.
func TestSameSeedByteIdenticalTrace(t *testing.T) {
	trace1, stats1 := runSeededLoad(t, 42)
	trace2, stats2 := runSeededLoad(t, 42)
	if trace1 == "" {
		t.Fatal("empty trace; load generated no events")
	}
	if trace1 != trace2 {
		// Report the first diverging line, not megabytes of trace.
		l1 := strings.Split(trace1, "\n")
		l2 := strings.Split(trace2, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("traces diverge at line %d:\n  run1: %s\n  run2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(l1), len(l2))
	}
	if !reflect.DeepEqual(stats1, stats2) {
		t.Errorf("stats differ between identical runs:\n  run1: %+v\n  run2: %+v", stats1, stats2)
	}
}

// TestWriterTracerGoldenDigest pins the text trace rendering byte for
// byte: the SHA-256 of the full WriterTracer output of the seed-42 load,
// fault-free and with every fault class armed. The binary format is
// pinned separately (TestPerfettoGoldenExport in cmd/discotrace).
func TestWriterTracerGoldenDigest(t *testing.T) {
	faulty := faultConfig(fault.Spec{Seed: 9, EngineRate: 0.05, PayloadRate: 0.01, CreditRate: 0.01})
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"fault-free", discoConfig(), "22b2be33535df93fafa284c6e7a745cf5fca0681dc2cbc03500231402bfd33df"},
		{"faults", faulty, "797fbb3a1960563310c6adf32feba1488947c74f0ee75b95c3feeb96a2ec7a68"},
	} {
		trace, _ := runSeededLoadCfg(t, c.cfg, 42)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != c.want {
			t.Errorf("%s: text trace digest %s, want %s", c.name, got, c.want)
		}
	}
}

// runInstrumentedLoad is runSeededLoad with the full telemetry surface
// attached: a metrics registry (JSON + series CSV exports) and a binary
// tracer. It returns all three serialized artifacts.
func runInstrumentedLoad(t *testing.T, seed int64) (metricsJSON, seriesCSV, binTrace []byte) {
	t.Helper()
	return runInstrumentedLoadCfg(t, discoConfig(), seed)
}

// runInstrumentedLoadCfg is runInstrumentedLoad with an explicit config.
func runInstrumentedLoadCfg(t *testing.T, cfg Config, seed int64) (metricsJSON, seriesCSV, binTrace []byte) {
	t.Helper()
	n := mustNet(t, cfg)
	reg := metrics.NewRegistry()
	n.AttachMetrics(reg, 128)
	var bin bytes.Buffer
	bt := NewBinaryTracer(&bin, cfg.Nodes())
	n.SetTracer(bt)
	tc := DefaultTraffic()
	tc.Seed = seed
	tc.InjectionRate = 0.05
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 2000; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	if err := bt.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	var mj, sc bytes.Buffer
	if err := reg.WriteJSON(&mj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := reg.WriteSeriesCSV(&sc); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	return mj.Bytes(), sc.Bytes(), bin.Bytes()
}

// TestSameSeedByteIdenticalTelemetry extends the determinism gate to the
// telemetry layer: same-seed runs must export byte-identical metrics
// JSON, time-series CSV and binary traces. Any map-ordered or
// wall-clock-tainted path through the exporters breaks this.
func TestSameSeedByteIdenticalTelemetry(t *testing.T) {
	mj1, sc1, bin1 := runInstrumentedLoad(t, 42)
	mj2, sc2, bin2 := runInstrumentedLoad(t, 42)
	if len(mj1) == 0 || len(sc1) == 0 || len(bin1) == 0 {
		t.Fatalf("empty artifact: metrics=%d series=%d trace=%d bytes",
			len(mj1), len(sc1), len(bin1))
	}
	if !bytes.Equal(mj1, mj2) {
		t.Error("metrics JSON differs between identical runs")
	}
	if !bytes.Equal(sc1, sc2) {
		t.Error("time-series CSV differs between identical runs")
	}
	if !bytes.Equal(bin1, bin2) {
		if len(bin1) != len(bin2) {
			t.Fatalf("binary traces differ in length: %d vs %d bytes", len(bin1), len(bin2))
		}
		for i := range bin1 {
			if bin1[i] != bin2[i] {
				t.Fatalf("binary traces diverge at byte %d", i)
			}
		}
	}
}

// TestDifferentSeedsDiverge guards the guard: if seeds were ignored the
// identical-trace test above would pass vacuously.
func TestDifferentSeedsDiverge(t *testing.T) {
	trace1, _ := runSeededLoad(t, 1)
	trace2, _ := runSeededLoad(t, 2)
	if trace1 == trace2 {
		t.Error("different seeds produced identical traces; the seed is not reaching the load")
	}
}

// --- Golden byte-identity suite: serial vs parallel engine -------------
//
// The two-phase engine's whole contract (DESIGN.md §9) is that the worker
// count is invisible in every artifact. These tests pin it: the same
// seeded load must produce byte-identical traces, stats, metrics JSON,
// series CSV and binary traces at workers ∈ {1, 2, 4, 8}, across mesh
// sizes, traffic patterns, and with fault injection armed.

// goldenWorkers are the worker counts the suite sweeps; 1 is the serial
// engine (no pool), the rest shard compute across a pool.
var goldenWorkers = []int{1, 2, 4, 8}

// goldenCases spans the configuration axes the engine shards over.
var goldenCases = []struct {
	name    string
	cfg     func() Config
	traffic func() TrafficConfig
}{
	{"mesh4-uniform", discoConfig, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 42, 0.06
		return tc
	}},
	{"mesh4-hotspot", discoConfig, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Pattern, tc.HotNode = Hotspot, 5
		tc.Seed, tc.InjectionRate = 7, 0.05
		return tc
	}},
	{"mesh8-transpose", func() Config {
		cfg := discoConfig()
		cfg.K = 8
		return cfg
	}, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Pattern = Transpose
		tc.Seed, tc.InjectionRate = 11, 0.04
		return tc
	}},
	{"mesh4-faults", func() Config {
		return faultConfig(fault.Spec{Seed: 9, EngineRate: 0.05, EngineStuck: 8,
			BreakerK: 3, BreakerCooldown: 64,
			PayloadRate: 0.01, CreditRate: 0.01, CreditRecovery: 32})
	}, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 13, 0.06
		return tc
	}},
}

// runGoldenLoad drives cfg under tc at the given phase-1 worker count and
// returns the full event trace and the final counters.
func runGoldenLoad(t *testing.T, cfg Config, tc TrafficConfig, workers int) (string, Stats) {
	t.Helper()
	n := mustNet(t, cfg)
	defer n.Close()
	n.SetWorkers(workers)
	var sb strings.Builder
	n.SetTracer(&WriterTracer{W: &sb})
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 1500; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	return sb.String(), n.Stats()
}

// diffTraces reports the first diverging line of two traces.
func diffTraces(t *testing.T, label, want, got string) {
	t.Helper()
	lw := strings.Split(want, "\n")
	lg := strings.Split(got, "\n")
	for i := 0; i < len(lw) && i < len(lg); i++ {
		if lw[i] != lg[i] {
			t.Fatalf("%s: traces diverge at line %d:\n  serial:   %s\n  parallel: %s",
				label, i+1, lw[i], lg[i])
		}
	}
	t.Fatalf("%s: traces differ in length: %d vs %d lines", label, len(lw), len(lg))
}

// TestGoldenByteIdentityAcrossWorkers is the golden gate for the
// two-phase engine: trace and stats byte-identity against the serial
// engine at every worker count, for every configuration axis.
func TestGoldenByteIdentityAcrossWorkers(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			wantTrace, wantStats := runGoldenLoad(t, c.cfg(), c.traffic(), 1)
			if wantTrace == "" {
				t.Fatal("empty trace; load generated no events")
			}
			for _, w := range goldenWorkers[1:] {
				gotTrace, gotStats := runGoldenLoad(t, c.cfg(), c.traffic(), w)
				if gotTrace != wantTrace {
					diffTraces(t, fmt.Sprintf("workers=%d", w), wantTrace, gotTrace)
				}
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Errorf("workers=%d: stats differ from serial:\n  serial:   %+v\n  parallel: %+v",
						w, wantStats, gotStats)
				}
			}
		})
	}
}

// runGoldenInstrumented is runGoldenLoad with the telemetry surface
// attached (metrics registry + binary tracer) instead of a text tracer.
func runGoldenInstrumented(t *testing.T, cfg Config, tc TrafficConfig, workers int) (metricsJSON, seriesCSV, binTrace []byte) {
	t.Helper()
	n := mustNet(t, cfg)
	defer n.Close()
	n.SetWorkers(workers)
	reg := metrics.NewRegistry()
	n.AttachMetrics(reg, 128)
	var bin bytes.Buffer
	bt := NewBinaryTracer(&bin, cfg.Nodes())
	n.SetTracer(bt)
	g := NewTrafficGen(n, tc)
	for cycle := 0; cycle < 1500; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	if err := bt.Close(); err != nil {
		t.Fatalf("tracer close: %v", err)
	}
	var mj, sc bytes.Buffer
	if err := reg.WriteJSON(&mj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := reg.WriteSeriesCSV(&sc); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	return mj.Bytes(), sc.Bytes(), bin.Bytes()
}

// TestGoldenTelemetryAcrossWorkers extends the golden gate to every
// serialized artifact: metrics JSON, time-series CSV and the binary
// trace must be byte-identical to the serial engine's at any worker
// count, including with fault injection armed.
func TestGoldenTelemetryAcrossWorkers(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			mj1, sc1, bin1 := runGoldenInstrumented(t, c.cfg(), c.traffic(), 1)
			if len(mj1) == 0 || len(sc1) == 0 || len(bin1) == 0 {
				t.Fatalf("empty artifact: metrics=%d series=%d trace=%d bytes",
					len(mj1), len(sc1), len(bin1))
			}
			for _, w := range goldenWorkers[1:] {
				mj2, sc2, bin2 := runGoldenInstrumented(t, c.cfg(), c.traffic(), w)
				if !bytes.Equal(mj1, mj2) {
					t.Errorf("workers=%d: metrics JSON differs from serial", w)
				}
				if !bytes.Equal(sc1, sc2) {
					t.Errorf("workers=%d: time-series CSV differs from serial", w)
				}
				if !bytes.Equal(bin1, bin2) {
					t.Errorf("workers=%d: binary trace differs from serial", w)
				}
			}
		})
	}
}

// TestRunParallelMatchesSerialDrain exercises the RunParallel entry
// point itself: a backlogged network drained by RunParallel must end in
// the same state as one drained serially, and the worker setting must be
// restored afterwards.
func TestRunParallelMatchesSerialDrain(t *testing.T) {
	build := func() *Network {
		n := mustNet(t, discoConfig())
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 3, 0.1
		g := NewTrafficGen(n, tc)
		for cycle := 0; cycle < 500; cycle++ {
			g.Step()
			n.Step()
		}
		return n
	}
	ns := build()
	if !ns.RunUntilQuiescent(100000) {
		t.Fatal("serial drain failed")
	}
	want := ns.Stats()
	np := build()
	defer np.Close()
	if !np.RunParallel(4, 100000) {
		t.Fatal("parallel drain failed")
	}
	if got := np.Workers(); got != 1 {
		t.Errorf("RunParallel left workers=%d, want 1 restored", got)
	}
	if got := np.Stats(); !reflect.DeepEqual(want, got) {
		t.Errorf("RunParallel end state differs from serial:\n  serial:   %+v\n  parallel: %+v", want, got)
	}
}
