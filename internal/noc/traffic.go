package noc

import (
	"fmt"
	"math/rand"

	"github.com/disco-sim/disco/internal/compress"
)

// Pattern is a synthetic traffic pattern for NoC-only studies
// (Booksim-style).
type Pattern int

// Traffic patterns.
const (
	// Uniform sends each packet to a uniformly random other node.
	Uniform Pattern = iota
	// Transpose sends (x,y) -> (y,x).
	Transpose
	// Hotspot sends a share of traffic to one hot node (an MC-like sink).
	Hotspot
	// BitComplement sends node i to N-1-i.
	BitComplement
)

// ParsePattern maps a name to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "transpose":
		return Transpose, nil
	case "hotspot":
		return Hotspot, nil
	case "bitcomp":
		return BitComplement, nil
	}
	return 0, fmt.Errorf("noc: unknown traffic pattern %q", s)
}

// TrafficConfig drives a synthetic open-loop load.
type TrafficConfig struct {
	// Pattern selects destinations.
	Pattern Pattern
	// InjectionRate is the per-node probability of generating a packet
	// each cycle.
	InjectionRate float64
	// DataFraction is the share of packets that carry a cache-block
	// payload (the rest are single-flit control packets).
	DataFraction float64
	// CompressibleFraction is the share of data payloads that compress
	// well under the delta scheme.
	CompressibleFraction float64
	// HotNode receives half the traffic under Hotspot.
	HotNode int
	// Seed makes the load deterministic.
	Seed int64
}

// DefaultTraffic returns a moderate mixed load.
func DefaultTraffic() TrafficConfig {
	return TrafficConfig{
		Pattern:              Uniform,
		InjectionRate:        0.02,
		DataFraction:         0.5,
		CompressibleFraction: 0.7,
		Seed:                 1,
	}
}

// TrafficGen injects synthetic packets into a network.
type TrafficGen struct {
	cfg    TrafficConfig
	net    *Network
	rng    *rand.Rand
	alg    compress.Algorithm
	nextID uint64
	// Generated counts injected packets.
	Generated uint64
}

// NewTrafficGen builds a generator bound to net. Core-bound data packets
// are injected in compressed form when their payload compresses (as LLC
// bank responses would be), so in-network decompression is exercised.
func NewTrafficGen(net *Network, cfg TrafficConfig) *TrafficGen {
	return &TrafficGen{
		cfg: cfg, net: net,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		alg: compress.NewDelta(),
	}
}

// dest picks a destination for src under the pattern.
func (g *TrafficGen) dest(src int) int {
	k := g.net.cfg.K
	n := g.net.cfg.Nodes()
	switch g.cfg.Pattern {
	case Transpose:
		x, y := g.net.cfg.XY(src)
		return g.net.cfg.NodeAt(y, x)
	case BitComplement:
		return n - 1 - src
	case Hotspot:
		if g.rng.Float64() < 0.5 {
			return g.cfg.HotNode
		}
	}
	_ = k
	for {
		d := g.rng.Intn(n)
		if d != src {
			return d
		}
	}
}

// payload synthesizes a block, compressible or not. The block comes
// from the network's arena and is fully overwritten either way, so a
// recycled block never leaks stale content.
func (g *TrafficGen) payload() []byte {
	b := g.net.takeBlock()
	if g.rng.Float64() < g.cfg.CompressibleFraction {
		base := g.rng.Uint64()
		for i := 0; i < 8; i++ {
			v := base + uint64(g.rng.Intn(200))
			for j := 0; j < 8; j++ {
				b[i*8+j] = byte(v >> uint(8*j))
			}
		}
	} else {
		_, _ = g.rng.Read(b) // documented to never fail
	}
	return b
}

// Step possibly injects one packet per node this cycle. Call before
// Network.Step.
func (g *TrafficGen) Step() {
	for src := 0; src < g.net.cfg.Nodes(); src++ {
		if g.rng.Float64() >= g.cfg.InjectionRate {
			continue
		}
		dst := g.dest(src)
		if dst == src {
			continue
		}
		g.nextID++
		g.Generated++
		if g.rng.Float64() < g.cfg.DataFraction {
			// Alternate bank-bound (wants compressed, injected raw like a
			// writeback) and core-bound (injected compressed like an LLC
			// response) payload directions.
			wantCompressed := g.nextID%2 == 0
			blk := g.payload()
			p := g.net.TakePacket().InitData(g.nextID, src, dst, blk, wantCompressed)
			p.ownsBlock = true
			if !wantCompressed {
				if c := g.alg.AppendCompress(p.payload[:0], blk); !c.Stored {
					p.ApplyCompression(c)
				}
			}
			g.net.Inject(p)
		} else {
			class := ClassRequest
			if g.nextID%3 == 0 {
				class = ClassCoherence
			}
			g.net.Inject(g.net.TakePacket().InitControl(g.nextID, src, dst, class))
		}
	}
}
