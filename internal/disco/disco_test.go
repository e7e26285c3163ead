package disco

import (
	"encoding/binary"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
)

func TestDefaultConfigValidates(t *testing.T) {
	cfg := DefaultConfig(compress.NewDelta())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if !cfg.NonBlocking || !cfg.SeparateFlit || !cfg.LowPriorityRule || !cfg.ResponseOnly {
		t.Error("default config should enable all paper mechanisms")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	var c Config
	if err := c.Validate(); err == nil {
		t.Error("nil algorithm should fail")
	}
	c = DefaultConfig(compress.NewDelta())
	c.Beta = -1
	if err := c.Validate(); err == nil {
		t.Error("negative coefficient should fail")
	}
}

func TestConfidenceEq1(t *testing.T) {
	cfg := Config{Gamma: 0.5, CCth: 1}
	cand := Candidate{RemoteOccupancy: 3, LocalOccupancy: 4}
	if got := cfg.Confidence(cand); got != 5 {
		t.Errorf("Eq.1 confidence = %g, want 5", got)
	}
	if !cfg.Confident(cand) {
		t.Error("5 > CCth=1 should be confident")
	}
	if cfg.Confident(Candidate{RemoteOccupancy: 1}) {
		t.Error("1 > 1 is false; should not be confident")
	}
}

func TestConfidenceEq2HopPenalty(t *testing.T) {
	cfg := Config{Alpha: 0.5, Beta: 1, CDth: 0}
	near := Candidate{RemoteOccupancy: 2, LocalOccupancy: 2, HopsRemaining: 1, Decompress: true}
	far := Candidate{RemoteOccupancy: 2, LocalOccupancy: 2, HopsRemaining: 6, Decompress: true}
	if !cfg.Confident(near) {
		t.Error("near-destination candidate should pass (2+1-1=2>0)")
	}
	if cfg.Confident(far) {
		t.Error("far candidate should be rejected (2+1-6=-3)")
	}
}

func TestSelectCandidatePicksLargestMargin(t *testing.T) {
	cfg := Config{Gamma: 1, Alpha: 1, Beta: 1, CCth: 2, CDth: 0}
	cands := []Candidate{
		{RemoteOccupancy: 1}, // conf 1, below CCth
		{RemoteOccupancy: 5}, // margin 3
		{RemoteOccupancy: 4, HopsRemaining: 1, Decompress: true}, // margin 3
		{RemoteOccupancy: 9}, // margin 7, winner
	}
	if got := cfg.SelectCandidate(cands); got != 3 {
		t.Errorf("SelectCandidate = %d, want 3", got)
	}
	if got := cfg.SelectCandidate([]Candidate{{RemoteOccupancy: 1}}); got != -1 {
		t.Errorf("no confident candidate should return -1, got %d", got)
	}
	if got := cfg.SelectCandidate(nil); got != -1 {
		t.Error("empty candidate list should return -1")
	}
}

// narrowBlock returns a delta-compressible block and its flits.
func narrowBlock() ([]byte, []uint64) {
	b := make([]byte, compress.BlockSize)
	base := uint64(0x4400_0000_0000)
	flits := make([]uint64, 8)
	for i := 0; i < 8; i++ {
		v := base + uint64(i*5)
		flits[i] = v
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b, flits
}

func TestEngineCompressWholePacket(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	block, flits := narrowBlock()
	j := e.StartCompress(7, flits, 8, 100)
	if j == nil {
		t.Fatal("StartCompress returned nil on idle engine")
	}
	j.SetBlock(block)
	if !e.Busy() {
		t.Fatal("engine should be busy")
	}
	// Delta comp latency is 1: not done at cycle 100, done at 101.
	if done := e.Tick(100); done != nil {
		t.Fatal("finished before latency elapsed")
	}
	done := e.Tick(101)
	if done == nil || done.State != JobDone {
		t.Fatalf("job not done at latency boundary: %+v", done)
	}
	if e.Busy() {
		t.Error("engine should be idle after completion")
	}
	res := done.Result()
	if res.Stored || res.SizeBytes() >= compress.BlockSize {
		t.Error("compressible block should have shrunk")
	}
	if e.Compressions != 1 {
		t.Errorf("Compressions = %d, want 1", e.Compressions)
	}
}

func TestEngineBusyRejectsSecondJob(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	_, flits := narrowBlock()
	if e.StartCompress(1, flits, 8, 0) == nil {
		t.Fatal("first job rejected")
	}
	if e.StartCompress(2, flits, 8, 0) != nil {
		t.Error("busy engine must reject a second job")
	}
	if e.StartDecompress(3, compress.Compressed{}, 0) != nil {
		t.Error("busy engine must reject decompress too")
	}
}

func TestEngineSeparateCompressionFragments(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	block, flits := narrowBlock()
	j := e.StartCompress(9, flits[:3], 8, 10)
	j.SetBlock(block)
	// Latency elapsed but fragments missing: no completion.
	if done := e.Tick(12); done != nil {
		t.Fatal("completed without all fragments")
	}
	if j.State != JobCommitted {
		t.Error("job should commit once past the latency window")
	}
	e.Absorb(flits[3:6])
	if done := e.Tick(13); done != nil {
		t.Fatal("still missing fragments")
	}
	e.Absorb(flits[6:])
	done := e.Tick(14)
	if done == nil || done.State != JobDone {
		t.Fatal("job should finish after final fragment")
	}
	if done.Result().SizeBytes() != 17 {
		t.Errorf("merged Δ1 size = %dB, want 17", done.Result().SizeBytes())
	}
}

func TestEngineStrictIncrementalAbortsOnWildFlit(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	_, flits := narrowBlock()
	j := e.StartCompress(4, flits[:4], 8, 0)
	j.SetBlock(make([]byte, compress.BlockSize))
	e.Absorb([]uint64{1 << 40, 0, 0, 0}) // does not fit Δ1 against either base
	done := e.Tick(5)
	if done == nil || done.State != JobAborted {
		t.Fatal("wild flit should abort a strict incremental job")
	}
	if e.Failures != 1 {
		t.Errorf("Failures = %d, want 1", e.Failures)
	}
	if e.Busy() {
		t.Error("engine should be free after abort")
	}
}

func TestEngineGenericStreamingCompress(t *testing.T) {
	// FPC engine: generic streaming mode assembles bytes and compresses
	// at the end.
	e := NewEngine(compress.NewFPC())
	b := make([]byte, compress.BlockSize) // zero block, very compressible
	flits := make([]uint64, 8)
	j := e.StartCompress(5, flits[:2], 8, 0)
	_ = j
	e.Absorb(flits[2:])
	var done *Job
	for c := uint64(1); c < 10 && done == nil; c++ {
		done = e.Tick(c)
	}
	if done == nil || done.State != JobDone {
		t.Fatal("streaming job should finish")
	}
	var out [compress.BlockSize]byte
	if err := compress.NewFPC().DecompressInto(&out, done.Result()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for i := range out {
		if out[i] != b[i] {
			t.Fatal("streamed compression corrupted the block")
		}
	}
}

func TestEngineGenericStreamingAbortsOnIncompressible(t *testing.T) {
	e := NewEngine(compress.NewFPC())
	flits := make([]uint64, 8)
	for i := range flits {
		flits[i] = 0x9E3779B97F4A7C15 * uint64(i+1) // pseudorandom
	}
	e.StartCompress(6, flits, 8, 0)
	var done *Job
	for c := uint64(1); c < 10 && done == nil; c++ {
		done = e.Tick(c)
	}
	if done == nil || done.State != JobAborted {
		t.Fatal("incompressible stream should abort")
	}
}

func TestEngineDecompress(t *testing.T) {
	alg := compress.NewDelta()
	e := NewEngine(alg)
	block, _ := narrowBlock()
	c := alg.AppendCompress(nil, block)
	e.StartDecompress(11, c, 0)
	// Decomp latency 3: done at cycle 3.
	if done := e.Tick(2); done != nil {
		t.Fatal("early completion")
	}
	done := e.Tick(3)
	if done == nil || done.State != JobDone {
		t.Fatal("decompress should finish at latency")
	}
	got := done.Block()
	for i := range got {
		if got[i] != block[i] {
			t.Fatal("decompressed content mismatch")
		}
	}
	if e.Decompressions != 1 {
		t.Error("Decompressions counter wrong")
	}
}

func TestEngineNonBlockingRelease(t *testing.T) {
	e := NewEngine(compress.NewSC2()) // 6-cycle comp: wide pending window
	flits := make([]uint64, 8)
	e.StartCompress(21, flits, 8, 0)
	if !e.CanRelease(21) {
		t.Fatal("pending job should be releasable")
	}
	if e.CanRelease(99) {
		t.Error("wrong packet id should not be releasable")
	}
	e.Release(21)
	if e.Busy() {
		t.Error("release should free the engine")
	}
	if e.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", e.Aborts)
	}
}

func TestEngineCommittedJobNotReleasable(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	block, flits := narrowBlock()
	j := e.StartCompress(31, flits[:4], 8, 0)
	j.SetBlock(block)
	e.Tick(1) // latency met, fragments missing -> committed
	if e.CanRelease(31) {
		t.Error("committed job must not be releasable")
	}
	defer func() {
		if recover() == nil {
			t.Error("Release on committed job should panic")
		}
	}()
	e.Release(31)
}

func TestEngineDropIfCurrent(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	_, flits := narrowBlock()
	e.StartCompress(41, flits, 8, 0)
	e.DropIfCurrent(42) // wrong id: no-op
	if !e.Busy() {
		t.Fatal("wrong-id drop should not free engine")
	}
	e.DropIfCurrent(41)
	if e.Busy() {
		t.Error("drop should free engine")
	}
}

func TestJobKindString(t *testing.T) {
	if JobCompress.String() != "compress" || JobDecompress.String() != "decompress" {
		t.Error("JobKind.String wrong")
	}
}

func TestAdaptiveThresholds(t *testing.T) {
	cfg := DefaultConfig(compress.NewDelta())
	// Static when Adaptive off.
	cc, cd := cfg.Thresholds(0.9)
	if cc != cfg.CCth || cd != cfg.CDth {
		t.Error("non-adaptive config should return static thresholds")
	}
	cfg.Adaptive = true
	cfg.AdaptiveGain = 1
	hiCC, hiCD := cfg.Thresholds(1.0) // congested: thresholds drop
	loCC, loCD := cfg.Thresholds(0.0) // idle: thresholds rise
	if !(hiCC < cfg.CCth && cfg.CCth < loCC) {
		t.Errorf("CCth not monotone in congestion: %.1f / %.1f / %.1f", hiCC, cfg.CCth, loCC)
	}
	if !(hiCD < cfg.CDth && cfg.CDth < loCD) {
		t.Errorf("CDth not monotone in congestion: %.1f / %.1f / %.1f", hiCD, cfg.CDth, loCD)
	}
	// Out-of-range congestion is clamped.
	cl, _ := cfg.Thresholds(7)
	if cl != hiCC {
		t.Error("congestion should clamp to [0,1]")
	}
	cfg.AdaptiveGain = 0
	cc, _ = cfg.Thresholds(1)
	if cc != cfg.CCth {
		t.Error("zero gain should disable adaptation")
	}
}

func TestSelectCandidateAt(t *testing.T) {
	cfg := Config{Gamma: 1, Alpha: 1, Beta: 1}
	cands := []Candidate{{RemoteOccupancy: 3}}
	if cfg.SelectCandidateAt(cands, 5, 5) != -1 {
		t.Error("high explicit threshold should reject")
	}
	if cfg.SelectCandidateAt(cands, 1, 1) != 0 {
		t.Error("low explicit threshold should accept")
	}
}

func TestJobResultPanicsWhenUnfinished(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	_, flits := narrowBlock()
	j := e.StartCompress(55, flits[:2], 8, 0)
	defer func() {
		if recover() == nil {
			t.Error("Result on unfinished job should panic")
		}
	}()
	j.Result()
}

func TestStreamedBlockPanicsWithoutContent(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	_, flits := narrowBlock()
	e.StartCompress(56, flits, 8, 0)
	// Strict incremental job without SetBlock: completion must panic
	// loudly (router bug) rather than emit garbage.
	defer func() {
		if recover() == nil {
			t.Error("completion without SetBlock should panic")
		}
	}()
	e.Tick(5)
}

func TestEngineAbsorbWithoutJobPanics(t *testing.T) {
	e := NewEngine(compress.NewDelta())
	defer func() {
		if recover() == nil {
			t.Error("Absorb without job should panic")
		}
	}()
	e.Absorb([]uint64{1})
}
