package disco_test

// One benchmark per table/figure of the paper's evaluation (Section 4),
// plus the DESIGN.md §5 ablations and micro-benchmarks of the hot
// components. The figure benches run reduced-size simulations so a
// default `go test -bench=. -benchmem` stays affordable; full-fidelity
// numbers come from `go run ./cmd/discosim -exp all` (see EXPERIMENTS.md).

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/energy"
	"github.com/disco-sim/disco/internal/experiments"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
)

// benchOpts keeps one iteration around a second.
func benchOpts() experiments.Opts {
	return experiments.Opts{
		Ops: 1200, Warmup: 600, Seed: 1,
		Benchmarks: []string{"bodytrack", "canneal"},
	}
}

// BenchmarkTable1CompressionSchemes regenerates Table 1 (latency and
// compression-ratio parameters of every scheme).
func BenchmarkTable1CompressionSchemes(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(experiments.Opts{Benchmarks: []string{"bodytrack", "freqmine"}})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Ratio, row.Scheme+"_ratio")
	}
}

// BenchmarkFig5DeltaLatency regenerates Figure 5: normalized on-chip data
// access latency with the paper's delta compressor.
func BenchmarkFig5DeltaLatency(b *testing.B) {
	var last experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.GMean.CC, "CC_norm_lat")
	b.ReportMetric(last.GMean.CNC, "CNC_norm_lat")
	b.ReportMetric(last.GMean.DISCO, "DISCO_norm_lat")
	b.ReportMetric(last.DiscoGainOverCC(), "gain_vs_CC_%")
}

// BenchmarkFig6FpcLatency regenerates the FPC half of Figure 6.
func BenchmarkFig6FpcLatency(b *testing.B) {
	benchFig6(b, "fpc")
}

// BenchmarkFig6Sc2Latency regenerates the SC² half of Figure 6.
func BenchmarkFig6Sc2Latency(b *testing.B) {
	benchFig6(b, "sc2")
}

func benchFig6(b *testing.B, alg string) {
	b.Helper()
	var last experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = rs[alg]
	}
	b.ReportMetric(last.GMean.CC, "CC_norm_lat")
	b.ReportMetric(last.GMean.CNC, "CNC_norm_lat")
	b.ReportMetric(last.GMean.DISCO, "DISCO_norm_lat")
	b.ReportMetric(last.DiscoGainOverCC(), "gain_vs_CC_%")
	b.ReportMetric(last.DiscoGainOverCNC(), "gain_vs_CNC_%")
}

// BenchmarkFig7Energy regenerates Figure 7: normalized memory-subsystem
// energy (baseline = 1.0).
func BenchmarkFig7Energy(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"canneal", "streamcluster"}
	var last experiments.EnergyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.GMean.CC, "CC_norm_energy")
	b.ReportMetric(last.GMean.CNC, "CNC_norm_energy")
	b.ReportMetric(last.GMean.DISCO, "DISCO_norm_energy")
}

// BenchmarkFig8Scalability regenerates Figure 8: DISCO's gain over CC at
// 2x2 / 4x4 / 8x8 mesh sizes.
func BenchmarkFig8Scalability(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = []string{"canneal"}
	var last experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.GainPct, sizeName(row.K)+"_gain_%")
	}
}

func sizeName(k int) string {
	switch k {
	case 2:
		return "2x2"
	case 4:
		return "4x4"
	case 8:
		return "8x8"
	}
	return "kxk"
}

// BenchmarkAreaOverhead regenerates the Section 4.3 area estimation.
func BenchmarkAreaOverhead(b *testing.B) {
	var r energy.AreaReport
	for i := 0; i < b.N; i++ {
		r = energy.Area("disco", 16, 4)
	}
	b.ReportMetric(r.OverheadVsRouterPct, "vs_router_%")
	b.ReportMetric(r.OverheadVsCachePct, "vs_cache_%")
	cnc := energy.Area("cnc", 16, 4)
	b.ReportMetric(cnc.EngineTotal/r.EngineTotal, "cnc_over_disco_x")
}

// BenchmarkAblationPolicies measures the DESIGN.md §5 DISCO policy
// ablations (non-blocking, separate compression, low-priority rule, ...).
func BenchmarkAblationPolicies(b *testing.B) {
	o := experiments.Opts{Ops: 1000, Warmup: 500, Seed: 1, Benchmarks: []string{"canneal"}}
	var last experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(o)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(row.Normalized, row.Variant)
	}
}

// --- micro-benchmarks -------------------------------------------------------

// benchBlocks builds a deterministic mixed-content sample.
func benchBlocks() [][]byte {
	prof, _ := trace.ByName("bodytrack")
	out := make([][]byte, 256)
	for i := range out {
		out[i] = prof.Content(trace.PrivateBase(i%4) + uint64(i))
	}
	return out
}

func benchCompress(b *testing.B, alg compress.Algorithm) {
	b.Helper()
	blocks := benchBlocks()
	if s, ok := alg.(*compress.SC2); ok {
		s.Train(blocks)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		c := alg.AppendCompress(nil, blocks[i%len(blocks)]) // a fresh payload per op
		total += c.SizeBytes()
	}
	b.SetBytes(compress.BlockSize)
	_ = total
}

// BenchmarkCompressDelta measures the paper's delta codec throughput.
func BenchmarkCompressDelta(b *testing.B) { benchCompress(b, compress.NewDelta()) }

// BenchmarkCompressBDI measures the BΔI codec throughput.
func BenchmarkCompressBDI(b *testing.B) { benchCompress(b, compress.NewBDI()) }

// BenchmarkCompressFPC measures the FPC codec throughput.
func BenchmarkCompressFPC(b *testing.B) { benchCompress(b, compress.NewFPC()) }

// BenchmarkCompressCPack measures the C-Pack codec throughput.
func BenchmarkCompressCPack(b *testing.B) { benchCompress(b, compress.NewCPack()) }

// BenchmarkCompressSC2 measures the SC² codec throughput.
func BenchmarkCompressSC2(b *testing.B) { benchCompress(b, compress.NewSC2()) }

// decodedSink keeps BenchmarkDecompressDelta's blocks on the heap.
var decodedSink *[compress.BlockSize]byte

// BenchmarkDecompressDelta measures delta decode throughput into a
// fresh block per op, as a decoder that keeps its output pays.
func BenchmarkDecompressDelta(b *testing.B) {
	alg := compress.NewDelta()
	blocks := benchBlocks()
	comp := make([]compress.Compressed, len(blocks))
	for i, blk := range blocks {
		comp[i] = alg.AppendCompress(nil, blk)
	}
	b.SetBytes(compress.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodedSink = new([compress.BlockSize]byte)
		if err := alg.DecompressInto(decodedSink, comp[i%len(comp)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStatefulEncode measures discod's per-block encoder: a
// compress.Stateful encodes each block directly and as an XOR residual
// against the previous block, and keeps the smaller. The stream is warmed
// over two passes of benchBlocks first, so SC²'s table is trained; the
// retrains every 256 blocks stay inside the timed loop, as they do on a
// real stream.
func benchStatefulEncode(b *testing.B, alg compress.Algorithm) {
	b.Helper()
	blocks := benchBlocks()
	s := compress.NewStateful(alg)
	for i := 0; i < 2*len(blocks); i++ {
		s.Encode(blocks[i%len(blocks)])
	}
	b.SetBytes(compress.BlockSize)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += s.Encode(blocks[i%len(blocks)]).SizeBits
	}
	_ = total
}

// BenchmarkStatefulEncodeDelta measures the stream encoder over the
// paper's delta codec.
func BenchmarkStatefulEncodeDelta(b *testing.B) { benchStatefulEncode(b, compress.NewDelta()) }

// BenchmarkStatefulEncodeSC2 measures the stream encoder over SC², whose
// table Stateful retrains online.
func BenchmarkStatefulEncodeSC2(b *testing.B) { benchStatefulEncode(b, compress.NewSC2()) }

// bulkPopulation is a long stream's history: 16384 blocks (1 MiB, the
// discod bulk stream length) cycling drifting 64-bit counters, a
// repeated word, zeros and pseudorandom words, about 80k distinct
// values. It also returns that distinct count.
func bulkPopulation() ([][]byte, int) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([][]byte, 16384)
	seen := make(map[uint32]bool)
	counter := rng.Uint64()
	for i := range blocks {
		blk := make([]byte, compress.BlockSize)
		switch i % 4 {
		case 0:
			for j := 0; j < len(blk); j += 8 {
				binary.LittleEndian.PutUint64(blk[j:], counter+uint64(j))
			}
			counter += uint64(i%7) + 1
		case 1:
			v := rng.Uint32()
			for j := 0; j < len(blk); j += 4 {
				binary.LittleEndian.PutUint32(blk[j:], v)
			}
		case 3:
			for j := 0; j < len(blk); j += 8 {
				binary.LittleEndian.PutUint64(blk[j:], rng.Uint64())
			}
		}
		for j := 0; j < len(blk); j += 4 {
			seen[binary.LittleEndian.Uint32(blk[j:])] = true
		}
		blocks[i] = blk
	}
	return blocks, len(seen)
}

// benchRetrain measures one Retrain after the whole bulk population.
// From the second op on nothing was observed since the previous
// retrain, so the histogram re-ranks no value.
func benchRetrain(b *testing.B, alg compress.Trainable) {
	b.Helper()
	blocks, distinct := bulkPopulation()
	for _, blk := range blocks {
		alg.Observe(blk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Retrain()
	}
	b.ReportMetric(float64(distinct), "distinct")
}

// benchRetrainStream measures what a stream pays per retrain period, as
// compress.Stateful drives it on both ends of an SC²/FVC stream: each op
// observes the next 256 blocks of the bulk population, wrapping to its
// start, and retrains.
func benchRetrainStream(b *testing.B, alg compress.Trainable) {
	b.Helper()
	blocks, _ := bulkPopulation()
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range 256 {
			alg.Observe(blocks[next])
			next = (next + 1) % len(blocks)
		}
		alg.Retrain()
	}
}

// BenchmarkRetrainSC2Long measures an SC² table + Huffman code rebuild.
func BenchmarkRetrainSC2Long(b *testing.B) { benchRetrain(b, compress.NewSC2()) }

// BenchmarkRetrainFVCLong measures an FVC table rebuild.
func BenchmarkRetrainFVCLong(b *testing.B) { benchRetrain(b, compress.NewFVC()) }

// BenchmarkRetrainSC2Stream measures 256 SC² observations plus a rebuild.
func BenchmarkRetrainSC2Stream(b *testing.B) { benchRetrainStream(b, compress.NewSC2()) }

// BenchmarkRetrainFVCStream measures 256 FVC observations plus a rebuild.
func BenchmarkRetrainFVCStream(b *testing.B) { benchRetrainStream(b, compress.NewFVC()) }

// BenchmarkNoCStepIdle measures the simulator's per-cycle cost on an idle
// 4x4 mesh (the fast path the idle-router skip optimizes).
func BenchmarkNoCStepIdle(b *testing.B) {
	net, err := noc.New(noc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkNoCStepLoaded measures per-cycle cost under DISCO load.
func BenchmarkNoCStepLoaded(b *testing.B) {
	cfg := noc.DefaultConfig()
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := noc.DefaultTraffic()
	tc.InjectionRate = 0.05
	gen := noc.NewTrafficGen(net, tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Step()
		net.Step()
	}
}

// BenchmarkNoCStepMesh8Serial measures per-cycle cost of a loaded 8x8
// DISCO mesh, the paper's largest evaluated platform (Fig. 8). The name
// is kept so the frozen pre-kernel snapshot can still be compared.
func BenchmarkNoCStepMesh8Serial(b *testing.B) {
	cfg := noc.DefaultConfig()
	cfg.K = 8
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	net, err := noc.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := noc.DefaultTraffic()
	tc.InjectionRate = 0.08
	gen := noc.NewTrafficGen(net, tc)
	for i := 0; i < 500; i++ {
		gen.Step()
		net.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Step()
		net.Step()
	}
}

// BenchmarkSystemRun measures the full-system simulator end to end: each
// iteration builds and runs a 4x4 DISCO/delta canneal system (footprint
// beyond L1, so misses, packets and events dominate), reporting simulated
// cycles per second and heap allocations per simulated cycle, set-up
// included.
func BenchmarkSystemRun(b *testing.B) {
	prof, _ := trace.ByName("canneal")
	var cycles uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
		cfg.OpsPerCore, cfg.WarmupOps = 3000, 1500
		sys, err := cmp.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(cycles), "allocs/cycle")
}

// BenchmarkTraceGeneration measures workload-stream generation.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, _ := trace.ByName("canneal")
	g := trace.NewGenerator(&prof, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkBlockContent measures block materialization (pattern synth).
func BenchmarkBlockContent(b *testing.B) {
	prof, _ := trace.ByName("canneal")
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(compress.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prof.Content(uint64(rng.Intn(1 << 20)))
	}
}
