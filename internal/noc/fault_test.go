package noc

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/fault"
)

// faultConfig returns a DISCO network config with the given fault spec.
func faultConfig(spec fault.Spec) Config {
	cfg := discoConfig()
	cfg.Fault = &spec
	return cfg
}

// injectMixedLoad injects waves of data packets in both conversion
// directions — compressed LLC responses heading to cores (decompress in
// flight) and uncompressed blocks heading to banks (compress in flight) —
// recording each packet's functional content by ID in origin. Install
// OnEject before calling: the load steps the network between waves, so
// ejections start before it returns.
func injectMixedLoad(t *testing.T, n *Network, waves int, origin map[uint64][]byte) {
	t.Helper()
	alg := compress.NewDelta()
	cfg := n.Config()
	nodes := cfg.Nodes()
	id := uint64(0)
	for wave := 0; wave < waves; wave++ {
		for src := 0; src < nodes; src++ {
			dst := (src + 5 + wave) % nodes
			if dst == src {
				continue
			}
			id++
			block := compressibleBlock(int64(id))
			origin[id] = block
			if src%2 == 0 {
				comp := alg.AppendCompress(nil, block)
				if comp.Stored {
					t.Fatalf("test block %d unexpectedly incompressible", id)
				}
				n.Inject(NewCompressedDataPacket(id, src, dst, block, comp, false))
			} else {
				n.Inject(NewDataPacket(id, src, dst, block, true))
			}
		}
		for i := 0; i < 3; i++ {
			n.Step()
		}
	}
}

// verifyDelivered asserts a delivered packet's functional content matches
// what was injected — in either wire form.
func verifyDelivered(t *testing.T, origin map[uint64][]byte, pkt *Packet) {
	t.Helper()
	want, ok := origin[pkt.ID]
	if !ok {
		t.Fatalf("packet %d delivered but never injected", pkt.ID)
	}
	if pkt.Compressed {
		got, err := decodeBlock(compress.NewDelta(), pkt.Comp)
		if err != nil {
			t.Errorf("packet %d delivered with undecodable payload: %v", pkt.ID, err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Errorf("packet %d delivered corrupt compressed payload", pkt.ID)
		}
		return
	}
	if !bytes.Equal(pkt.Block, want) {
		t.Errorf("packet %d delivered corrupt block", pkt.ID)
	}
}

// TestEngineFaultRecovery arms a 100% engine fault rate: every DISCO job
// faults, holds the engine for the stuck window, then aborts. Every
// packet must still be delivered intact (the shadow packet continues in
// its pre-engine form) and the per-router circuit breakers must trip.
func TestEngineFaultRecovery(t *testing.T) {
	cfg := faultConfig(fault.Spec{Seed: 3, EngineRate: 1, EngineStuck: 8, BreakerK: 3, BreakerCooldown: 64})
	n := mustNet(t, cfg)
	origin := map[uint64][]byte{}
	delivered := 0
	n.OnEject = func(_ int, pkt *Packet) {
		if pkt.Class == ClassResponse {
			verifyDelivered(t, origin, pkt)
			delivered++
		}
	}
	injectMixedLoad(t, n, 10, origin)
	if !n.RunUntilQuiescent(100000) {
		t.Fatalf("network did not drain under engine faults:\n%s", n.Snapshot())
	}
	if delivered != len(origin) {
		t.Errorf("delivered %d of %d packets", delivered, len(origin))
	}
	fs := n.FaultStats()
	if fs == nil || fs.EngineFaults == 0 {
		t.Fatalf("expected injected engine faults, got %+v", fs)
	}
	if fs.BreakerTrips == 0 {
		t.Errorf("100%% fault rate with K=3 should trip breakers: %s", fs)
	}
	st := n.Stats()
	if st.Compressions != 0 || st.Decompressions != 0 {
		t.Errorf("every job faults; no transform should complete (comp=%d decomp=%d)",
			st.Compressions, st.Decompressions)
	}
}

// TestPayloadIntegrityUnderFlips is the end-to-end integrity property:
// under injected payload bit-flips every delivered cache block is
// byte-identical to the injected one — corruption is always caught (at an
// in-network decompression or at the sink) and recovered from the
// retained original, never silently delivered.
func TestPayloadIntegrityUnderFlips(t *testing.T) {
	cfg := faultConfig(fault.Spec{Seed: 11, PayloadRate: 0.1})
	n := mustNet(t, cfg)
	origin := map[uint64][]byte{}
	delivered := 0
	n.OnEject = func(_ int, pkt *Packet) {
		if pkt.Class == ClassResponse {
			verifyDelivered(t, origin, pkt)
			delivered++
		}
	}
	injectMixedLoad(t, n, 25, origin)
	if !n.RunUntilQuiescent(100000) {
		t.Fatalf("network did not drain under payload flips:\n%s", n.Snapshot())
	}
	if delivered != len(origin) {
		t.Errorf("delivered %d of %d packets", delivered, len(origin))
	}
	fs := n.FaultStats()
	if fs == nil || fs.PayloadFlips == 0 {
		t.Fatalf("load produced no payload flips (rate too low for this load?): %+v", fs)
	}
	if fs.EngineRecoveries+fs.SinkRecoveries == 0 {
		t.Errorf("flips injected but nothing recovered: %s", fs)
	}
	t.Logf("fault stats: %s", fs)
}

// TestCreditLossHeals drops link credits at a low rate and checks the
// network still drains, with every lost credit eventually restored by the
// link-level recovery.
func TestCreditLossHeals(t *testing.T) {
	cfg := faultConfig(fault.Spec{Seed: 5, CreditRate: 0.02, CreditRecovery: 64})
	n := mustNet(t, cfg)
	origin := map[uint64][]byte{}
	n.OnEject = func(_ int, pkt *Packet) {
		if pkt.Class == ClassResponse {
			verifyDelivered(t, origin, pkt)
		}
	}
	injectMixedLoad(t, n, 10, origin)
	if !n.RunUntilQuiescent(100000) {
		t.Fatalf("network did not drain under credit loss:\n%s", n.Snapshot())
	}
	fs := n.FaultStats()
	if fs == nil || fs.CreditsDropped == 0 {
		t.Fatalf("load dropped no credits: %+v", fs)
	}
	// Step past the last scheduled recovery: all credits must return.
	for i := uint64(0); i < cfg.Fault.CreditRecovery+1; i++ {
		n.Step()
	}
	fs = n.FaultStats()
	if fs.CreditsOutstanding != 0 || fs.CreditsRestored != fs.CreditsDropped {
		t.Errorf("credits not fully healed: %s", fs)
	}
}

// TestFaultDeterminism checks the injector is part of the deterministic
// state: identical fault specs and seeds give byte-identical traces and
// identical fault counters.
func TestFaultDeterminism(t *testing.T) {
	spec := fault.Spec{Seed: 9, EngineRate: 0.05, PayloadRate: 0.01, CreditRate: 0.01}
	run := func() (string, *FaultStats) {
		cfg := faultConfig(spec)
		n := mustNet(t, cfg)
		var sb bytes.Buffer
		n.SetTracer(&WriterTracer{W: &sb})
		origin := map[uint64][]byte{}
		n.OnEject = func(_ int, pkt *Packet) {
			if pkt.Class == ClassResponse {
				verifyDelivered(t, origin, pkt)
			}
		}
		injectMixedLoad(t, n, 8, origin)
		if !n.RunUntilQuiescent(100000) {
			t.Fatalf("network did not drain:\n%s", n.Snapshot())
		}
		return sb.String(), n.FaultStats()
	}
	tr1, fs1 := run()
	tr2, fs2 := run()
	if tr1 != tr2 {
		t.Error("same fault seed produced diverging traces")
	}
	if !reflect.DeepEqual(fs1, fs2) {
		t.Errorf("fault stats differ between identical runs:\n  %s\n  %s", fs1, fs2)
	}
	if fs1.EngineFaults == 0 && fs1.PayloadFlips == 0 && fs1.CreditsDropped == 0 {
		t.Error("fault run injected nothing; determinism check is vacuous")
	}
}

// TestFaultLayerZeroOverheadOff is the zero-overhead-off gate: with the
// fault layer compiled in but disabled — whether by a nil spec or an
// all-zero one — traces, stats, metrics and binary-trace artifacts must
// stay byte-identical to a fault-free configuration.
func TestFaultLayerZeroOverheadOff(t *testing.T) {
	silent := discoConfig()
	silent.Fault = &fault.Spec{} // armed struct, all rates zero => disabled
	baseTrace, baseStats := runSeededLoad(t, 42)
	offTrace, offStats := runSeededLoadCfg(t, silent, 42)
	if baseTrace != offTrace {
		t.Error("silent fault spec changed the event trace")
	}
	if !reflect.DeepEqual(baseStats, offStats) {
		t.Errorf("silent fault spec changed stats:\n  base: %+v\n  off:  %+v", baseStats, offStats)
	}
	mj1, sc1, bin1 := runInstrumentedLoad(t, 42)
	mj2, sc2, bin2 := runInstrumentedLoadCfg(t, silent, 42)
	if !bytes.Equal(mj1, mj2) {
		t.Error("silent fault spec changed metrics JSON")
	}
	if !bytes.Equal(sc1, sc2) {
		t.Error("silent fault spec changed time-series CSV")
	}
	if !bytes.Equal(bin1, bin2) {
		t.Error("silent fault spec changed the binary trace")
	}
	if n := mustNet(t, silent); n.FaultEnabled() || n.FaultStats() != nil {
		t.Error("silent spec must not arm the injector")
	}
}
