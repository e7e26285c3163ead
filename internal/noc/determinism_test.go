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

// --- Golden digest suite ----------------------------------------------
//
// Every serialized artifact of a seeded load — the text trace, the
// final stats, the metrics JSON, the series CSV and the binary trace —
// is pinned by SHA-256 across mesh sizes, traffic patterns and with
// fault injection armed. The digests were recorded from the engine as
// it stood before its worker pool was removed, so they also pin that
// removal as byte-neutral.

// goldenCases spans the engine's configuration axes.
var goldenCases = []struct {
	name    string
	cfg     func() Config
	traffic func() TrafficConfig
	// SHA-256 digests of the artifacts, in hex.
	trace, stats, metrics, series, bin string
}{
	{"mesh4-uniform", discoConfig, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 42, 0.06
		return tc
	},
		"97afa838ad4bf5ea453c6b82abc50526afb867f6275cf1a4a3bb29298c3abc2c",
		"ab08cd9eacd4e3f73f80223780dfe245c6270db6b0c676270ea07af21fd4d6db",
		"e9cfb62ec59f062f9bfd71fca26dd2aebdbe0f6cdf688dc60caf8256d09d965c",
		"4ed9b1c46f37f80792928beec793a63bdd2fcbc917ce0a6ffc2b0324b490e551",
		"7e1db326b4c56953b03a2b5c20c6adb6f9034f0d9fef6bb037074fec110d8962"},
	{"mesh4-hotspot", discoConfig, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Pattern, tc.HotNode = Hotspot, 5
		tc.Seed, tc.InjectionRate = 7, 0.05
		return tc
	},
		"c27c29e2fd6f0e22b2ec5de3ef32e81d669a83453d42136b8c5a8ae75bcd8e87",
		"bebc4e09a21311dd5c586f3815489f23816dd803be3bfea28c4a8879f5455864",
		"c5f286439e61cc2b236cd8869bc040acac72fdb1bec7c2795a3fd892935ef5e3",
		"0996996d27679d7af79e5232f659971f5a118179ddf3b5e909be50613c37547b",
		"8fa3fb52834fe76d1cfbc2f31544aaafb8e73f94b230a002cfb01b9063bd4492"},
	{"mesh8-transpose", func() Config {
		cfg := discoConfig()
		cfg.K = 8
		return cfg
	}, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Pattern = Transpose
		tc.Seed, tc.InjectionRate = 11, 0.04
		return tc
	},
		"9d2baa379f25b63dcf45e5a2cc3bbc44afa5ec2db19d893f2636a01c6afa7150",
		"ffd5e3e7f93955e19e3f73d3c37adb2a3eaf67f14ea0d491f2806ff0d28c834a",
		"5d6e8e5fb2973f5a6619c2971bef16f27a3df08c2ea543fbba1d554c800e4468",
		"391466d249f840b723addc7a5529ed71f37b66ecec0699f95ee6ee4acfc8666a",
		"5696d41232e9eced960a4f288953c44ea1572d5e6b21814c942b654fda983f55"},
	{"mesh4-faults", func() Config {
		return faultConfig(fault.Spec{Seed: 9, EngineRate: 0.05, EngineStuck: 8,
			BreakerK: 3, BreakerCooldown: 64,
			PayloadRate: 0.01, CreditRate: 0.01, CreditRecovery: 32})
	}, func() TrafficConfig {
		tc := DefaultTraffic()
		tc.Seed, tc.InjectionRate = 13, 0.06
		return tc
	},
		"0f7495e69fb7c39e8835eb21f5d4bb0ace6d1e0f9cbbefbd6856d638c51d3637",
		"c8a38639f6602b8efe6195beb9a74476d37226633fcb8b6decf7bb1f3fef9a91",
		"6c360ae8c4e671f9f44169703131d7975fb760310d74b64bbe86f59dde95f6cc",
		"a119d7b5ec942c01eec1f8dba829b8a2a8d62b6524f63207981d3160a299b5ae",
		"d636ff6cb89dee89d531de7bcd282c21b39cb998f65cf074d2799e9232584475"},
}

// runGoldenLoad drives cfg under tc and returns the full event trace and
// the final counters.
func runGoldenLoad(t *testing.T, cfg Config, tc TrafficConfig) (string, Stats) {
	t.Helper()
	n := mustNet(t, cfg)
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
			t.Fatalf("%s: traces diverge at line %d:\n  want: %s\n  got:  %s",
				label, i+1, lw[i], lg[i])
		}
	}
	t.Fatalf("%s: traces differ in length: %d vs %d lines", label, len(lw), len(lg))
}

// runGoldenInstrumented is runGoldenLoad with the telemetry surface
// attached (metrics registry + binary tracer) instead of a text tracer.
func runGoldenInstrumented(t *testing.T, cfg Config, tc TrafficConfig) (metricsJSON, seriesCSV, binTrace []byte) {
	t.Helper()
	n := mustNet(t, cfg)
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

// goldenSum is the hex SHA-256 of an artifact.
func goldenSum(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// checkDigest reports an artifact whose digest is not the pinned one.
func checkDigest(t *testing.T, artifact string, b []byte, want string) {
	t.Helper()
	if got := goldenSum(b); got != want {
		t.Errorf("%s digest %s, want %s", artifact, got, want)
	}
}

// TestGoldenByteIdentityAcrossWorkers is the golden gate for the cycle
// engine's trace and stats: for every golden case they must hash to the
// digests that the engine produced at every worker count (1, 2, 4 and 8)
// before its worker pool was removed.
func TestGoldenByteIdentityAcrossWorkers(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			trace, st := runGoldenLoad(t, c.cfg(), c.traffic())
			if trace == "" {
				t.Fatal("empty trace; load generated no events")
			}
			checkDigest(t, "text trace", []byte(trace), c.trace)
			checkDigest(t, "stats", []byte(fmt.Sprintf("%+v", st)), c.stats)
		})
	}
}

// TestGoldenTelemetryAcrossWorkers extends the golden gate to every
// other serialized artifact: metrics JSON, time-series CSV and the
// binary trace must hash to the digests recorded at every worker count
// before the pool was removed, including with fault injection armed.
func TestGoldenTelemetryAcrossWorkers(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			mj, sc, bin := runGoldenInstrumented(t, c.cfg(), c.traffic())
			if len(mj) == 0 || len(sc) == 0 || len(bin) == 0 {
				t.Fatalf("empty artifact: metrics=%d series=%d trace=%d bytes",
					len(mj), len(sc), len(bin))
			}
			checkDigest(t, "metrics JSON", mj, c.metrics)
			checkDigest(t, "series CSV", sc, c.series)
			checkDigest(t, "binary trace", bin, c.bin)
		})
	}
}
