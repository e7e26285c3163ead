// Quickstart: the three layers of the DISCO library in one file —
// (1) compress a cache block, (2) run a DISCO mesh with synthetic
// traffic, (3) run a small full-system simulation.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
)

func main() {
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
	fmt.Printf("round trip ok: %v\n\n", string(round[0]) == string(block[0]))

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
}
