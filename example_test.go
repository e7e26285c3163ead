package disco_test

// Runnable tours of the library. `go test` runs each one and compares
// what it prints with its Output block, so a tour that drifts from the
// code fails the suite; `go test -run Example_chaos -v .` runs one.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/metrics"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
	"github.com/disco-sim/disco/internal/tracefmt"
)

// The three layers of the library in one place: (1) compress a cache
// block, (2) run a DISCO mesh under synthetic traffic, (3) run a small
// full-system simulation.
func Example_quickstart() {
	// --- 1. Block compression ------------------------------------------
	block := make([]byte, compress.BlockSize)
	base := uint64(0x7FFE_0000_1000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(block[i*8:], base+uint64(i)*24)
	}
	alg := compress.NewDelta()
	var payload, round [compress.BlockSize]byte
	c := alg.AppendCompress(payload[:0], block)
	fmt.Printf("delta: 64B block -> %dB (%.2fx), comp %d cyc, decomp %d cyc\n",
		c.SizeBytes(), c.Ratio(), alg.CompLatency(), alg.DecompLatency())
	if err := alg.DecompressInto(&round, c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip ok: %v\n\n", bytes.Equal(round[:], block))

	// --- 2. A DISCO mesh under synthetic load ---------------------------
	ncfg := noc.DefaultConfig()
	dc := disco.DefaultConfig(compress.NewDelta())
	ncfg.Disco = &dc
	net, err := noc.New(ncfg)
	if err != nil {
		log.Fatal(err)
	}
	tc := noc.DefaultTraffic()
	tc.Pattern = noc.Hotspot
	tc.HotNode = 5
	gen := noc.NewTrafficGen(net, tc)
	for i := 0; i < 5000; i++ {
		gen.Step()
		net.Step()
	}
	net.RunUntilQuiescent(100000)
	s := net.Stats()
	fmt.Printf("4x4 DISCO mesh: %d packets, mean latency %.1f cycles\n",
		s.Ejected, s.PacketLatency.Mean())
	fmt.Printf("in-network: %d compressions, %d decompressions (%d shadow releases)\n\n",
		s.Compressions, s.Decompressions, s.EngineReleases)

	// --- 3. Full-system run ---------------------------------------------
	prof, _ := trace.ByName("bodytrack")
	cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
	cfg.OpsPerCore = 2000
	cfg.WarmupOps = 1000
	sys, err := cmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("full system:", r)
	// Output:
	// delta: 64B block -> 24B (2.67x), comp 1 cyc, decomp 3 cyc
	// round trip ok: true
	//
	// 4x4 DISCO mesh: 1533 packets, mean latency 18.3 cycles
	// in-network: 35 compressions, 21 decompressions (10 shadow releases)
	//
	// full system: disco     bodytrack     lat=   62.0 cycles=   68673 L1miss=  5468 L2miss=  3735 dram= 3735 flits=  267080 E=77.6uJ
}

// The external-trace workflow: snapshot a synthetic workload into the
// portable trace format, read it back, and drive a full-system DISCO run
// from the replayed streams. The same path accepts traces captured from
// any other simulator (gem5, Pin, ...) once converted to the
// one-line-per-access format.
func Example_traceReplay() {
	prof, _ := trace.ByName("freqmine")

	// 1. Record per-core traces (tracegen writes these to disk).
	files := make([]bytes.Buffer, 16)
	for core := range files {
		g := trace.NewGenerator(&prof, core, 7)
		if err := g.Err(); err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteTrace(&files[core], trace.Record(g, 3000)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("recorded 16 traces, core 0: %d bytes\n", files[0].Len())

	// 2. Read them back and build replay streams.
	streams := make([]trace.Stream, 16)
	for core := range streams {
		accs, err := trace.ReadTrace(&files[core])
		if err != nil {
			log.Fatal(err)
		}
		streams[core] = trace.NewReplay(accs)
	}

	// 3. Drive the full system from the replays.
	cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
	cfg.Streams = streams
	cfg.OpsPerCore, cfg.WarmupOps = 2000, 1000
	sys, err := cmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replayed run:", r)
	// Output:
	// recorded 16 traces, core 0: 38109 bytes
	// replayed run: disco     freqmine      lat=   61.6 cycles=   61989 L1miss=  4918 L2miss=  3430 dram= 3430 flits=  233255 E=70.7uJ
}

// The fault-injection and resilience layer: a full-system DISCO run with
// all three fault classes armed (transient engine faults, in-flight
// payload bit-flips, link credit loss), the graceful degradation that
// keeps the run correct (shadow recovery, sink verification, the
// per-router circuit breaker), and the progress watchdog that turns a
// wedged simulation into a typed, diagnosable error instead of a hung
// process.
func Example_chaos() {
	prof, _ := trace.ByName("canneal")
	cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
	cfg.OpsPerCore, cfg.WarmupOps = 2000, 1000
	run := func(spec *fault.Spec) (cmp.Results, error) {
		c := cfg
		c.Fault = spec
		sys, err := cmp.New(c)
		if err != nil {
			log.Fatal(err)
		}
		return sys.Run()
	}

	// 1. A chaos run: every fault class armed at rates high enough to
	// matter. The run must still complete, and every data block must
	// still arrive bit-exact: corruption is recovered from the retained
	// original, never delivered.
	res, err := run(&fault.Spec{
		Seed:        7,
		EngineRate:  0.05, // 5% of engine jobs wedge the engine
		EngineStuck: 16,   // ... for 16 cycles each
		PayloadRate: 0.01, // 1% of compressed traversals flip a bit
		CreditRate:  0.005,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chaos run completed:")
	fmt.Printf("  cycles %d, avg miss latency %.1f\n", res.Cycles, res.AvgMissLatency)
	fmt.Printf("  %s\n\n", res.Fault)

	// 2. A silent spec runs exactly like no fault layer at all.
	quiet, err := run(&fault.Spec{})
	if err != nil {
		log.Fatal(err)
	}
	plain, err := run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disabled spec: cycles %d (fault stats: %v), fault-free: cycles %d\n\n",
		quiet.Cycles, quiet.Fault, plain.Cycles)

	// 3. A wedged run: every credit is lost and none comes back within
	// the run. The progress watchdog notices the frozen progress
	// signature long before the cycle budget and returns a *StallError
	// whose snapshot shows what is stuck where (Snapshot.String prints
	// every occupied VC).
	cfg.StallWindow = 5_000
	_, err = run(&fault.Spec{Seed: 1, CreditRate: 1, CreditRecovery: 50_000_000})
	var se *cmp.StallError
	if !errors.As(err, &se) {
		log.Fatalf("expected a stall, got: %v", err)
	}
	fmt.Printf("wedged run detected: %v\n", se)
	fmt.Printf("  %s\n", se.Snapshot.Fault)
	// Output:
	// chaos run completed:
	//   cycles 116669, avg miss latency 62.1
	//   engine faults 112 (breaker trips 4, open 0); payload flips 156 (recovered 1 in-network, 153 at sink); credits lost 2301 (restored 2294, outstanding 7)
	//
	// disabled spec: cycles 116862 (fault stats: <nil>), fault-free: cycles 116862
	//
	// wedged run detected: cmp: disco/canneal stalled at cycle 6144 (no forward progress for 5120 cycles); cycle 6144: 54 packet(s) in network, 0 link flit(s) in flight, 16 router(s) occupied, injected 242 / ejected 127
	//   engine faults 0 (breaker trips 0, open 0); payload flips 0 (recovered 0 in-network, 0 at sink); credits lost 302 (restored 0, outstanding 302)
}

// The telemetry layer end to end: attach a metrics registry and a binary
// tracer to one DISCO run, read the registry, and analyze the trace
// in-process the way cmd/discotrace does: per-packet latency breakdown
// and the engine-overlap ratio of Section 3.2 of the paper. The CLI
// equivalent is
//
//	go run ./cmd/discosim -run disco -benchmark canneal \
//	    -metrics metrics.json -trace-bin trace.bin
//	go run ./cmd/discotrace trace.bin
func Example_observability() {
	prof, _ := trace.ByName("canneal")
	cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
	cfg.OpsPerCore = 2000
	cfg.WarmupOps = 1000
	sys, err := cmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry attachment 1: the metrics registry, sampled every 512
	// simulated cycles.
	reg := metrics.NewRegistry()
	sys.AttachMetrics(reg, 512)

	// Telemetry attachment 2: a binary event trace, kept in memory here;
	// discosim -trace-bin streams the same bytes to a file.
	var traceBuf bytes.Buffer
	ncfg := sys.Network().Config()
	bt := noc.NewBinaryTracer(&traceBuf, ncfg.Nodes())
	sys.Network().SetTracer(bt)

	r, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s/DISCO: on-chip miss latency %.2f cyc, %d trace records, %d bytes\n\n",
		cfg.Profile.Name, r.AvgMissLatency, bt.Count, traceBuf.Len())

	// The registry snapshot: counters evaluated after the run.
	snap := reg.Snapshot()
	fmt.Println("selected counters from the metrics registry:")
	for _, name := range []string{
		"noc.injected", "noc.flit_hops", "noc.compressions",
		"noc.engine_releases", "cmp.l2_misses", "cmp.residual_conversions",
	} {
		fmt.Printf("  %-26s %d\n", name, snap.Counters[name])
	}
	fmt.Printf("  %-26s %.3f\n\n", "noc.overlap_ratio", snap.Gauges["noc.overlap_ratio"])

	fmt.Printf("time series: %d columns x %d rows at %d-cycle interval "+
		"(reg.WriteSeriesCSV for the full table)\n\n",
		len(snap.Series.Columns), len(snap.Series.Rows), snap.Series.IntervalCycles)

	// Replay the trace the way discotrace does: pair injects with ejects
	// and split each packet's latency into queue / serialization / engine.
	if err := replayTrace(&traceBuf); err != nil {
		log.Fatal(err)
	}
	// Output:
	// ran canneal/DISCO: on-chip miss latency 62.24 cyc, 500906 trace records, 9756897 bytes
	//
	// selected counters from the metrics registry:
	//   noc.injected               41981
	//   noc.flit_hops              454259
	//   noc.compressions           201
	//   noc.engine_releases        15
	//   cmp.l2_misses              6505
	//   cmp.residual_conversions   15952
	//   noc.overlap_ratio          0.410
	//
	// time series: 9 columns x 228 rows at 512-cycle interval (reg.WriteSeriesCSV for the full table)
	//
	// trace replay: 39114 delivered packets
	//   mean latency 16.62 = queue 5.65 + serialization 10.86 + engine 0.11 cyc
	//   engine overlap: 2953 of 7207 engine cycles hidden (ratio 0.41)
}

// replayTrace decodes a binary trace and prints the aggregate latency
// breakdown of its delivered packets.
func replayTrace(raw io.Reader) error {
	rd, err := tracefmt.NewReader(raw)
	if err != nil {
		return err
	}
	inject := map[uint64]uint64{}
	var pkts, totalSum, queueSum, serialSum, engineSum, busySum uint64
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if !rec.HasPacket {
			continue
		}
		switch rec.Kind {
		case tracefmt.KindInject:
			inject[rec.Pkt.ID] = rec.Cycle
		case tracefmt.KindEject:
			start, ok := inject[rec.Pkt.ID]
			if !ok {
				continue
			}
			delete(inject, rec.Pkt.ID)
			total := rec.Cycle - start
			stall := min(rec.Pkt.Queueing, total)
			engine := min(rec.Pkt.EngineStall, stall)
			pkts++
			totalSum += total
			queueSum += stall - engine
			serialSum += total - stall
			engineSum += engine
			busySum += rec.Pkt.EngineCycles
		}
	}
	if pkts == 0 {
		return fmt.Errorf("trace contains no delivered packets")
	}
	f := func(v uint64) float64 { return float64(v) / float64(pkts) }
	fmt.Printf("trace replay: %d delivered packets\n", pkts)
	fmt.Printf("  mean latency %.2f = queue %.2f + serialization %.2f + engine %.2f cyc\n",
		f(totalSum), f(queueSum), f(serialSum), f(engineSum))
	if busySum > 0 {
		fmt.Printf("  engine overlap: %d of %d engine cycles hidden (ratio %.2f)\n",
			busySum-engineSum, busySum, float64(busySum-engineSum)/float64(busySum))
	}
	return nil
}
