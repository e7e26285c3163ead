package noc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
)

// mustNet builds a network or fails the test.
func mustNet(t testing.TB, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// compressibleBlock returns a delta-compressible 64-byte block seeded by s.
func compressibleBlock(s int64) []byte {
	b := make([]byte, compress.BlockSize)
	base := uint64(0x7F00_0000_0000) + uint64(s)*4096
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], base+uint64(i))
	}
	return b
}

// randomBlock returns an incompressible block.
func randomBlock(s int64) []byte {
	rng := rand.New(rand.NewSource(s))
	b := make([]byte, compress.BlockSize)
	rng.Read(b)
	return b
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 1, VCs: 2, BufDepth: 8},
		{K: 4, VCs: 0, BufDepth: 8},
		{K: 4, VCs: 2, BufDepth: 1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestTopologyHelpers(t *testing.T) {
	c := Config{K: 4, VCs: 2, BufDepth: 8}
	if c.Nodes() != 16 {
		t.Error("Nodes wrong")
	}
	x, y := c.XY(7)
	if x != 3 || y != 1 {
		t.Errorf("XY(7) = %d,%d", x, y)
	}
	if c.NodeAt(3, 1) != 7 {
		t.Error("NodeAt wrong")
	}
	if c.Hops(0, 15) != 6 {
		t.Errorf("Hops(0,15) = %d, want 6", c.Hops(0, 15))
	}
	// XY routing goes X first.
	if p := c.routePort(0, 3); p != East {
		t.Errorf("routePort(0,3) = %v, want E", p)
	}
	if p := c.routePort(3, 15); p != South {
		t.Errorf("routePort(3,15) = %v, want S", p)
	}
	if p := c.routePort(5, 5); p != Local {
		t.Errorf("routePort(5,5) = %v, want L", p)
	}
	if c.neighbor(0, West) != -1 || c.neighbor(0, North) != -1 {
		t.Error("edge neighbors should be -1")
	}
	if c.neighbor(0, East) != 1 || c.neighbor(0, South) != 4 {
		t.Error("interior neighbors wrong")
	}
	for _, p := range []Port{East, West, North, South} {
		if p.opposite().opposite() != p {
			t.Errorf("opposite not involutive for %v", p)
		}
	}
}

func TestPortAndClassStrings(t *testing.T) {
	if East.String() != "E" || Local.String() != "L" || Port(9).String() != "?" {
		t.Error("Port strings wrong")
	}
	if ClassRequest.String() != "request" || ClassResponse.String() != "response" ||
		ClassCoherence.String() != "coherence" || Class(9).String() == "" {
		t.Error("Class strings wrong")
	}
}

func TestFlitsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 2, 8: 2, 9: 3, 17: 4, 64: 9}
	for bytes, want := range cases {
		if got := flitsFor(bytes); got != want {
			t.Errorf("flitsFor(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestSingleControlPacketDelivery(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	var got *Packet
	n.OnEject = func(node int, p *Packet) {
		if node != 15 {
			t.Errorf("ejected at node %d, want 15", node)
		}
		got = p
	}
	p := NewControlPacket(1, 0, 15, ClassRequest)
	n.Inject(p)
	if !n.RunUntilQuiescent(1000) {
		t.Fatal("network did not drain")
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Hops != 7 {
		t.Errorf("Hops = %d, want 7 (6 links + ejection router)", got.Hops)
	}
	lat := got.EjectCycle - got.InjectCycle
	// 1 injection + 3 cycles per router on 7 routers = 22-ish; assert a
	// tight deterministic band.
	if lat < 15 || lat > 30 {
		t.Errorf("zero-load latency = %d, outside [15,30]", lat)
	}
}

func TestZeroLoadLatencyMonotonicInDistance(t *testing.T) {
	lat := func(dst int) uint64 {
		n := mustNet(t, DefaultConfig())
		var e uint64
		n.OnEject = func(_ int, p *Packet) { e = p.EjectCycle - p.InjectCycle }
		n.Inject(NewControlPacket(1, 0, dst, ClassRequest))
		if !n.RunUntilQuiescent(1000) {
			t.Fatal("no drain")
		}
		return e
	}
	l1, l2, l3 := lat(1), lat(3), lat(15)
	if !(l1 < l2 && l2 < l3) {
		t.Errorf("latency not monotonic: %d %d %d", l1, l2, l3)
	}
}

func TestDataPacketSerialization(t *testing.T) {
	// A 9-flit data packet takes ~8 extra cycles vs a 1-flit packet on the
	// same path.
	run := func(data bool) uint64 {
		n := mustNet(t, DefaultConfig())
		var e uint64
		n.OnEject = func(_ int, p *Packet) { e = p.EjectCycle - p.InjectCycle }
		if data {
			n.Inject(NewDataPacket(1, 0, 5, compressibleBlock(1), false))
		} else {
			n.Inject(NewControlPacket(1, 0, 5, ClassRequest))
		}
		if !n.RunUntilQuiescent(2000) {
			t.Fatal("no drain")
		}
		return e
	}
	dc, dd := run(false), run(true)
	if dd < dc+7 || dd > dc+12 {
		t.Errorf("data packet latency %d vs control %d: serialization off", dd, dc)
	}
}

func TestLocalLoopback(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	delivered := false
	n.OnEject = func(node int, p *Packet) { delivered = node == 3 }
	n.Inject(NewControlPacket(1, 3, 3, ClassRequest))
	if !delivered {
		t.Error("src==dst should deliver immediately via NI loopback")
	}
}

func TestInjectPanicsOnBadNodes(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Inject(NewControlPacket(1, 0, 99, ClassRequest))
}

func TestManyPacketsConservation(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	ejected := 0
	n.OnEject = func(_ int, _ *Packet) { ejected++ }
	const N = 400
	id := uint64(0)
	for i := 0; i < N; i++ {
		src := rng.Intn(16)
		dst := rng.Intn(16)
		id++
		if i%3 == 0 {
			n.Inject(NewDataPacket(id, src, dst, compressibleBlock(int64(i)), false))
		} else {
			n.Inject(NewControlPacket(id, src, dst, ClassRequest))
		}
		if i%4 == 3 {
			n.Step()
		}
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain: possible deadlock")
	}
	if ejected != N {
		t.Errorf("ejected %d packets, want %d", ejected, N)
	}
	s := n.Stats()
	if s.Injected != N || s.Ejected != N {
		t.Errorf("stats injected/ejected = %d/%d, want %d", s.Injected, s.Ejected, N)
	}
	if s.PacketLatency.N() != N {
		t.Error("latency samples missing")
	}
}

// discoConfig builds a 4x4 DISCO network with the delta algorithm.
// decodeBlock is DecompressInto a fresh block.
func decodeBlock(alg compress.Algorithm, c compress.Compressed) ([]byte, error) {
	out := new([compress.BlockSize]byte)
	if err := alg.DecompressInto(out, c); err != nil {
		return nil, err
	}
	return out[:], nil
}

func discoConfig() Config {
	cfg := DefaultConfig()
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	return cfg
}

func TestDiscoCompressionUnderCongestion(t *testing.T) {
	// Many bank->memory-controller style packets (uncompressed, want
	// compressed at dst is bank-direction; here: srcs all over send data
	// packets WantCompressedAtDst=true to one hot node => congestion at
	// the column, DISCO should compress some packets in flight.
	cfg := discoConfig()
	n := mustNet(t, cfg)
	origin := map[uint64][]byte{}
	ej := 0
	n.OnEject = func(node int, p *Packet) {
		ej++
		// Functional integrity: whatever form it is in, the content must
		// match what was sent.
		var blk []byte
		if p.Compressed {
			var err error
			blk, err = decodeBlock(cfg.Disco.Algorithm, p.Comp)
			if err != nil {
				t.Fatalf("packet %d: corrupt payload: %v", p.ID, err)
			}
		} else {
			blk = p.Block
		}
		if !bytes.Equal(blk, origin[p.ID]) {
			t.Fatalf("packet %d: payload corrupted in flight", p.ID)
		}
	}
	id := uint64(0)
	for wave := 0; wave < 30; wave++ {
		for src := 0; src < 16; src++ {
			if src == 5 {
				continue
			}
			id++
			blk := compressibleBlock(int64(id))
			origin[id] = blk
			n.Inject(NewDataPacket(id, src, 5, blk, true))
		}
		n.Step()
	}
	if !n.RunUntilQuiescent(200000) {
		t.Fatal("network did not drain")
	}
	s := n.Stats()
	if int(s.Ejected) != ej || ej != int(id) {
		t.Fatalf("ejected %d, want %d", ej, id)
	}
	if s.Compressions == 0 {
		t.Error("congested DISCO network should compress some packets")
	}
}

func TestDiscoDecompressionTowardCore(t *testing.T) {
	// Compressed packets (as read from a compressed LLC) heading to a
	// "core" (WantCompressedAtDst=false) under congestion: DISCO should
	// decompress some in flight; all must eject with intact content.
	cfg := discoConfig()
	alg := cfg.Disco.Algorithm
	n := mustNet(t, cfg)
	origin := map[uint64][]byte{}
	decompressedInFlight := 0
	wrongForm := 0
	n.OnEject = func(node int, p *Packet) {
		if !p.Compressed {
			decompressedInFlight++
			if !bytes.Equal(p.Block, origin[p.ID]) {
				t.Fatalf("packet %d corrupted", p.ID)
			}
		} else {
			wrongForm++
			blk, err := decodeBlock(alg, p.Comp)
			if err != nil || !bytes.Equal(blk, origin[p.ID]) {
				t.Fatalf("packet %d corrupted (compressed form)", p.ID)
			}
		}
	}
	id := uint64(0)
	for wave := 0; wave < 30; wave++ {
		for src := 0; src < 16; src++ {
			if src == 10 {
				continue
			}
			id++
			blk := compressibleBlock(int64(id) * 7)
			origin[id] = blk
			c := alg.AppendCompress(nil, blk)
			n.Inject(NewCompressedDataPacket(id, src, 10, blk, c, false))
		}
		n.Step()
	}
	if !n.RunUntilQuiescent(200000) {
		t.Fatal("no drain")
	}
	s := n.Stats()
	if s.Decompressions == 0 {
		t.Error("expected in-flight decompressions under congestion")
	}
	if decompressedInFlight == 0 {
		t.Error("no packet ejected in decompressed form")
	}
	if uint64(wrongForm) != s.EjectedWrongForm {
		t.Errorf("wrong-form count mismatch: %d vs stat %d", wrongForm, s.EjectedWrongForm)
	}
}

func TestDiscoIncompressiblePacketsStillFlow(t *testing.T) {
	cfg := discoConfig()
	n := mustNet(t, cfg)
	ej := 0
	n.OnEject = func(_ int, p *Packet) {
		ej++
		if p.Compressed {
			t.Error("random payload should never arrive compressed")
		}
	}
	id := uint64(0)
	for wave := 0; wave < 20; wave++ {
		for src := 1; src < 16; src++ {
			id++
			n.Inject(NewDataPacket(id, src, 0, randomBlock(int64(id)), true))
		}
		n.Step()
	}
	if !n.RunUntilQuiescent(200000) {
		t.Fatal("no drain")
	}
	if uint64(ej) != id {
		t.Errorf("ejected %d, want %d", ej, id)
	}
}

func TestDiscoReducesFlitTrafficOnCompressibleFlow(t *testing.T) {
	// Same workload with and without DISCO: DISCO must move fewer
	// flit-hops (compressed packets are shorter).
	run := func(useDisco bool) uint64 {
		cfg := DefaultConfig()
		if useDisco {
			dc := disco.DefaultConfig(compress.NewDelta())
			cfg.Disco = &dc
		}
		n := mustNet(t, cfg)
		id := uint64(0)
		for wave := 0; wave < 40; wave++ {
			for src := 0; src < 16; src++ {
				if src == 5 {
					continue
				}
				id++
				n.Inject(NewDataPacket(id, src, 5, compressibleBlock(int64(id)), true))
			}
			n.Step()
		}
		if !n.RunUntilQuiescent(400000) {
			t.Fatal("no drain")
		}
		return n.Stats().FlitHops
	}
	plain, withDisco := run(false), run(true)
	if withDisco >= plain {
		t.Errorf("DISCO flit-hops %d >= plain %d; compression saved no traffic", withDisco, plain)
	}
}

func TestSeparateFlitDisabledBlocksNineFlitCompression(t *testing.T) {
	// With SeparateFlit off and 8-deep VCs, a 9-flit packet can never be
	// wholly resident, so compression count must be zero (Section 3.3A).
	cfg := discoConfig()
	cfg.Disco.SeparateFlit = false
	n := mustNet(t, cfg)
	id := uint64(0)
	for wave := 0; wave < 20; wave++ {
		for src := 0; src < 16; src++ {
			if src == 5 {
				continue
			}
			id++
			n.Inject(NewDataPacket(id, src, 5, compressibleBlock(int64(id)), true))
		}
		n.Step()
	}
	if !n.RunUntilQuiescent(400000) {
		t.Fatal("no drain")
	}
	if c := n.Stats().Compressions; c != 0 {
		t.Errorf("whole-packet-only mode compressed %d packets with 8-deep VCs", c)
	}
}

func TestSeparateFlitDisabledDeepBuffersCompress(t *testing.T) {
	// Same but with 12-deep VCs: whole packets fit, compression resumes
	// (the paper's "deep input buffers" alternative).
	cfg := discoConfig()
	cfg.Disco.SeparateFlit = false
	cfg.BufDepth = 12
	n := mustNet(t, cfg)
	id := uint64(0)
	for wave := 0; wave < 20; wave++ {
		for src := 0; src < 16; src++ {
			if src == 5 {
				continue
			}
			id++
			n.Inject(NewDataPacket(id, src, 5, compressibleBlock(int64(id)), true))
		}
		n.Step()
	}
	if !n.RunUntilQuiescent(400000) {
		t.Fatal("no drain")
	}
	if c := n.Stats().Compressions; c == 0 {
		t.Error("deep buffers should allow whole-packet compression")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		cfg := discoConfig()
		n := mustNet(t, cfg)
		rng := rand.New(rand.NewSource(77))
		id := uint64(0)
		for i := 0; i < 300; i++ {
			id++
			src, dst := rng.Intn(16), rng.Intn(16)
			n.Inject(NewDataPacket(id, src, dst, compressibleBlock(int64(i)), rng.Intn(2) == 0))
			n.Step()
		}
		n.RunUntilQuiescent(400000)
		s := n.Stats()
		return s.FlitHops, s.Compressions, uint64(s.PacketLatency.Mean() * 1000)
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Errorf("simulation is not deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestQuiescentInitially(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	if !n.Quiescent() {
		t.Error("fresh network should be quiescent")
	}
	n.Inject(NewControlPacket(1, 0, 1, ClassRequest))
	if n.Quiescent() {
		t.Error("network with queued packet should not be quiescent")
	}
}

func TestInjectQueueLen(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	for i := 0; i < 3; i++ {
		n.Inject(NewControlPacket(uint64(i+1), 0, 1, ClassRequest))
	}
	if got := n.InjectQueueLen(0); got != 3 {
		t.Errorf("InjectQueueLen = %d, want 3", got)
	}
	n.Step()
	// The 1-flit head packet finished streaming within the step.
	if got := n.InjectQueueLen(0); got != 2 {
		t.Errorf("after step InjectQueueLen = %d, want 2", got)
	}
}

func TestPacketFormHelpers(t *testing.T) {
	blk := compressibleBlock(1)
	p := NewDataPacket(1, 0, 1, blk, true)
	if p.FlitCount != 9 || p.PayloadFlits() != 8 {
		t.Errorf("uncompressed data packet flits = %d", p.FlitCount)
	}
	if p.InWantedForm() {
		t.Error("uncompressed packet wanting compressed is in wrong form")
	}
	alg := compress.NewDelta()
	c := alg.AppendCompress(nil, blk)
	p.ApplyCompression(c)
	if !p.Compressed || p.FlitCount != flitsFor(c.SizeBytes()) {
		t.Error("ApplyCompression wrong")
	}
	if !p.InWantedForm() {
		t.Error("compressed packet wanting compressed should be in form")
	}
	p.ApplyDecompression()
	if p.Compressed || p.FlitCount != 9 || p.PayloadBytes != 64 {
		t.Error("ApplyDecompression wrong")
	}
	ctrl := NewControlPacket(2, 0, 1, ClassCoherence)
	if !ctrl.InWantedForm() {
		t.Error("control packets are always in wanted form")
	}
}

func TestNewDataPacketPanicsOnShortBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDataPacket(1, 0, 1, make([]byte, 3), false)
}

func TestHotspotStressNoDeadlockProperty(t *testing.T) {
	// Heavy randomized mixed traffic against every flow-control corner:
	// everything must drain and every payload must survive.
	for _, seed := range []int64{1, 2, 3} {
		cfg := discoConfig()
		n := mustNet(t, cfg)
		rng := rand.New(rand.NewSource(seed))
		origin := map[uint64][]byte{}
		alg := cfg.Disco.Algorithm
		n.OnEject = func(_ int, p *Packet) {
			ref, okRef := origin[p.ID]
			if !okRef {
				return // control packet
			}
			blk := p.Block
			if p.Compressed {
				var err error
				blk, err = decodeBlock(alg, p.Comp)
				if err != nil {
					t.Fatalf("seed %d pkt %d corrupt", seed, p.ID)
				}
			}
			if !bytes.Equal(blk, ref) {
				t.Fatalf("seed %d pkt %d payload mismatch", seed, p.ID)
			}
		}
		id := uint64(0)
		for i := 0; i < 600; i++ {
			id++
			src, dst := rng.Intn(16), rng.Intn(16)
			switch rng.Intn(4) {
			case 0:
				n.Inject(NewControlPacket(id, src, dst, ClassRequest))
			case 1:
				blk := compressibleBlock(int64(id))
				origin[id] = blk
				n.Inject(NewDataPacket(id, src, dst, blk, rng.Intn(2) == 0))
			case 2:
				blk := randomBlock(int64(id))
				origin[id] = blk
				n.Inject(NewDataPacket(id, src, dst, blk, true))
			default:
				blk := compressibleBlock(int64(id) * 3)
				origin[id] = blk
				c := alg.AppendCompress(nil, blk)
				n.Inject(NewCompressedDataPacket(id, src, dst, blk, c, rng.Intn(2) == 1))
			}
			if rng.Intn(2) == 0 {
				n.Step()
			}
		}
		if !n.RunUntilQuiescent(500000) {
			t.Fatalf("seed %d: network did not drain (deadlock?)", seed)
		}
		s := n.Stats()
		if s.Injected != s.Ejected {
			t.Fatalf("seed %d: conservation violated %d != %d", seed, s.Injected, s.Ejected)
		}
	}
}

func TestLinkUtilization(t *testing.T) {
	n := mustNet(t, DefaultConfig())
	max0, mean0 := n.LinkUtilization()
	if max0 != 0 || mean0 != 0 {
		t.Error("fresh network should have zero utilization")
	}
	g := NewTrafficGen(n, DefaultTraffic())
	for i := 0; i < 3000; i++ {
		g.Step()
		n.Step()
	}
	n.RunUntilQuiescent(100000)
	max, mean := n.LinkUtilization()
	if !(max > 0 && mean > 0 && max >= mean && max <= 1.0) {
		t.Errorf("utilization out of range: max=%.3f mean=%.3f", max, mean)
	}
}
