package cmp

import (
	"testing"

	"github.com/disco-sim/disco/internal/cache"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/trace"
)

// protoSystem builds a small system whose cores are driven manually: the
// profile is irrelevant because we inject protocol messages directly.
func protoSystem(t *testing.T, mode Mode) *System {
	t.Helper()
	prof, _ := trace.ByName("bodytrack")
	cfg := DefaultConfig(mode, compress.NewDelta(), prof)
	cfg.OpsPerCore = 1 // cores idle after one op; we drive the protocol
	cfg.WarmupOps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Silence the cores entirely.
	for _, c := range s.cores {
		c.opsIssued = cfg.WarmupOps + cfg.OpsPerCore
		c.opsDone = c.opsIssued
	}
	return s
}

// drive steps until the predicate holds or the budget runs out.
func drive(t *testing.T, s *System, cycles int, pred func() bool) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		if pred() {
			return
		}
		s.Step()
	}
	if !pred() {
		t.Fatal("condition not reached within cycle budget")
	}
}

// requestFill issues a GetS/GetX from a core and waits for the fill.
func requestFill(t *testing.T, s *System, core int, addr cache.Addr, write bool) {
	t.Helper()
	c := s.cores[core]
	c.addMSHR(mshrEntry{addr: addr, write: write, issue: s.now})
	kind := mGetS
	if write {
		kind = mGetX
	}
	s.sendCtrl(kind, addr, core, s.homeOf(addr), 0, noc.ClassRequest)
	drive(t, s, 20000, func() bool {
		return c.mshr(addr) == nil
	})
}

func TestProtocolReadThenUpgrade(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(1) + 5)
	requestFill(t, s, 1, addr, false)
	if st := s.l1s[1].State(addr); st != cache.Exclusive {
		t.Fatalf("lone reader should get E, got %v", st)
	}
	// Second reader downgrades the grant to S.
	requestFill(t, s, 2, addr, false)
	if st := s.l1s[2].State(addr); st != cache.Shared {
		t.Fatalf("second reader should get S, got %v", st)
	}
	// Writer upgrades; other copies are invalidated.
	requestFill(t, s, 2, addr, true)
	if st := s.l1s[2].State(addr); st != cache.Modified {
		t.Fatalf("writer should hold M, got %v", st)
	}
	drive(t, s, 5000, func() bool { return s.l1s[1].State(addr) == cache.Invalid })
	home := s.homeOf(addr)
	line := s.banks[home].Peek(addr)
	if line == nil || line.Owner != 2 {
		t.Fatalf("directory owner should be 2: %+v", line)
	}
}

func TestProtocolOwnerForwarding(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(2) + 9)
	// Core 3 writes (M), then core 4 reads: the owner must downgrade to O
	// and the home must serve fresh data.
	requestFill(t, s, 3, addr, true)
	if st := s.l1s[3].State(addr); st != cache.Modified {
		t.Fatalf("writer state = %v", st)
	}
	requestFill(t, s, 4, addr, false)
	if st := s.l1s[3].State(addr); st != cache.Owned {
		t.Errorf("previous owner should be O, got %v", st)
	}
	if st := s.l1s[4].State(addr); st != cache.Shared {
		t.Errorf("reader should be S, got %v", st)
	}
	home := s.homeOf(addr)
	line := s.banks[home].Peek(addr)
	if line == nil || !line.Dirty {
		t.Error("home copy should be dirty after owner forward")
	}
}

func TestProtocolWritebackToPresentLine(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(3) + 77)
	requestFill(t, s, 5, addr, true)
	// Simulate an L1 eviction writeback.
	s.l1s[5].Invalidate(addr)
	s.sendData(mWB, addr, 5, s.homeOf(addr), 0, cache.Invalid, srcCore)
	home := s.homeOf(addr)
	drive(t, s, 5000, func() bool {
		l := s.banks[home].Peek(addr)
		return l != nil && l.Dirty && l.Owner == -1
	})
}

func TestProtocolWritebackToAbsentLineGoesToMemory(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(3) + 101)
	before := s.dramWrites()
	// Writeback for a line the LLC does not hold: must continue to DRAM.
	s.sendData(mWB, addr, 5, s.homeOf(addr), 0, cache.Invalid, srcCore)
	drive(t, s, 5000, func() bool { return s.dramWrites() == before+1 })
}

func TestProtocolInvalidateAbsentLineStillAcks(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(1) + 200)
	// Core 7 never held the line; a stray Inv must be acked (txnID!=0) and
	// not crash.
	s.sendCtrl(mInv, addr, s.homeOf(addr), 7, 42, noc.ClassCoherence)
	for i := 0; i < 200; i++ {
		s.Step()
	}
}

func TestProtocolQueuedRequestsServedInOrder(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(2) + 300)
	// Two concurrent readers for the same cold line: both must complete.
	c1, c2 := s.cores[1], s.cores[2]
	c1.addMSHR(mshrEntry{addr: addr, issue: s.now})
	c2.addMSHR(mshrEntry{addr: addr, issue: s.now})
	s.sendCtrl(mGetS, addr, 1, s.homeOf(addr), 0, noc.ClassRequest)
	s.sendCtrl(mGetS, addr, 2, s.homeOf(addr), 0, noc.ClassRequest)
	drive(t, s, 30000, func() bool {
		return c1.mshr(addr) == nil && c2.mshr(addr) == nil
	})
	if s.l1s[1].State(addr) == cache.Invalid || s.l1s[2].State(addr) == cache.Invalid {
		t.Error("both readers should hold the line")
	}
}

func TestProtocolDISCOBankStoresCompressed(t *testing.T) {
	s := protoSystem(t, DISCO)
	addr := cache.Addr(trace.PrivateBase(1) + 11)
	requestFill(t, s, 1, addr, false)
	home := s.homeOf(addr)
	line := s.banks[home].Peek(addr)
	if line == nil {
		t.Fatal("fill did not install the line")
	}
	want := s.storedSize(addr)
	if line.SizeBytes != want {
		t.Errorf("stored size = %d, want %d", line.SizeBytes, want)
	}
	if want < compress.BlockSize && line.Segs >= 8 {
		t.Errorf("compressed line should take fewer segments, got %d", line.Segs)
	}
}

func TestProtocolBaselineStoresRaw(t *testing.T) {
	s := protoSystem(t, Baseline)
	addr := cache.Addr(trace.PrivateBase(1) + 12)
	requestFill(t, s, 1, addr, false)
	line := s.banks[s.homeOf(addr)].Peek(addr)
	if line == nil || line.SizeBytes != compress.BlockSize {
		t.Errorf("baseline must store 64B lines: %+v", line)
	}
}

func TestProtocolL2VictimRecall(t *testing.T) {
	s := protoSystem(t, Baseline)
	// Fill one set of one bank beyond capacity so a directory-tracked
	// victim gets recalled from its sharer.
	// Bank geometry: 512 sets, 8 ways, interleave 16 banks. Use bank 0,
	// and addresses that map to the same set: addr = j * 16 * 512.
	var addrs []cache.Addr
	for j := 0; j < 9; j++ {
		addrs = append(addrs, cache.Addr(uint64(j)*16*512*7919)) // spread via hash anyway
	}
	// Simpler: just fill many lines via core 1 reads and verify inclusion
	// is maintained for whatever got evicted.
	for i, a := range addrs {
		requestFill(t, s, 1, a, false)
		_ = i
	}
	// Every line still in L1 must be present in the LLC (inclusion), once
	// all recalls have drained.
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	for _, a := range addrs {
		if s.l1s[1].State(a) != cache.Invalid {
			if s.banks[s.homeOf(a)].Peek(a) == nil {
				t.Errorf("inclusion violated for %x", uint64(a))
			}
		}
	}
}
