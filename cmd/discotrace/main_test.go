package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/tracefmt"
)

// buildTrace assembles a tiny 2x2-mesh trace with two delivered packets
// and one engine job span.
func buildTrace(t *testing.T) []byte {
	t.Helper()
	var buf []byte
	buf = tracefmt.AppendHeader(buf, 4)
	rec := func(r tracefmt.Record) {
		buf = tracefmt.AppendRecord(buf, &r)
	}
	p1 := tracefmt.PacketInfo{ID: 1, Src: 0, Dst: 3, Flits: 5, Hops: 2,
		Queueing: 10, EngineCycles: 6, EngineStall: 2}
	p2 := tracefmt.PacketInfo{ID: 2, Src: 1, Dst: 2, Flits: 5, Hops: 2,
		Queueing: 0, EngineCycles: 0, EngineStall: 0}
	rec(tracefmt.Record{Cycle: 0, Router: 0, Kind: tracefmt.KindInject, HasPacket: true, Pkt: p1})
	rec(tracefmt.Record{Cycle: 1, Router: 1, Kind: tracefmt.KindInject, HasPacket: true, Pkt: p2})
	rec(tracefmt.Record{Cycle: 2, Router: 0, Kind: tracefmt.KindSAGrant, HasPacket: true, Pkt: p1})
	rec(tracefmt.Record{Cycle: 3, Router: 0, Kind: tracefmt.KindEngineStart, HasPacket: true, Pkt: p1})
	rec(tracefmt.Record{Cycle: 9, Router: 0, Kind: tracefmt.KindEngineDone, HasPacket: true, Pkt: p1})
	rec(tracefmt.Record{Cycle: 11, Router: 2, Kind: tracefmt.KindEject, HasPacket: true, Pkt: p2})
	rec(tracefmt.Record{Cycle: 30, Router: 3, Kind: tracefmt.KindEject, HasPacket: true, Pkt: p1})
	return buf
}

func analyzeBytes(t *testing.T, raw []byte) *analysis {
	t.Helper()
	r, err := tracefmt.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	a, err := analyze(r)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

func TestAnalyzeBreakdown(t *testing.T) {
	a := analyzeBytes(t, buildTrace(t))
	if a.records != 7 || a.nodes != 4 {
		t.Fatalf("records=%d nodes=%d, want 7, 4", a.records, a.nodes)
	}
	if len(a.pkts) != 2 {
		t.Fatalf("delivered packets = %d, want 2", len(a.pkts))
	}
	// Ejection order: p2 first (cycle 11), then p1 (cycle 30).
	p2, p1 := a.pkts[0], a.pkts[1]
	if p1.id != 1 || p2.id != 2 {
		t.Fatalf("packet order: got ids %d,%d", p2.id, p1.id)
	}
	// p1: total 30, stall 10, exposed engine 2 -> queue 8, serial 20.
	if p1.Total != 30 || p1.Queue != 8 || p1.Engine != 2 || p1.Serialization != 20 {
		t.Errorf("p1 breakdown = total %d queue %d engine %d serial %d, want 30/8/2/20",
			p1.Total, p1.Queue, p1.Engine, p1.Serialization)
	}
	if p1.EngineBusy != 6 || p1.EngineHidden != 4 {
		t.Errorf("p1 engine busy/hidden = %d/%d, want 6/4", p1.EngineBusy, p1.EngineHidden)
	}
	// p2: pure serialization.
	if p2.Total != 10 || p2.Queue != 0 || p2.Engine != 0 || p2.Serialization != 10 {
		t.Errorf("p2 breakdown = total %d queue %d engine %d serial %d, want 10/0/0/10",
			p2.Total, p2.Queue, p2.Engine, p2.Serialization)
	}
	// Aggregate overlap: 4 of 6 engine cycles hidden.
	if got := a.overlapRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("overlapRatio = %v, want 4/6", got)
	}
}

func TestAnalyzeEngineSpans(t *testing.T) {
	a := analyzeBytes(t, buildTrace(t))
	rs := a.routers[0]
	if rs == nil {
		t.Fatal("router 0 missing")
	}
	if rs.engineStarts != 1 || rs.engineEnds != 1 {
		t.Errorf("engine starts/ends = %d/%d, want 1/1", rs.engineStarts, rs.engineEnds)
	}
	if rs.engineBusy != 6 { // start cycle 3 .. done cycle 9
		t.Errorf("engineBusy = %d, want 6", rs.engineBusy)
	}
	if rs.saGrants != 1 {
		t.Errorf("saGrants = %d, want 1", rs.saGrants)
	}
}

func TestAnalyzeIgnoresUnpairedEject(t *testing.T) {
	var buf []byte
	buf = tracefmt.AppendHeader(buf, 4)
	// Eject with no matching inject (tracing attached mid-run).
	r := tracefmt.Record{Cycle: 5, Router: 0, Kind: tracefmt.KindEject,
		HasPacket: true, Pkt: tracefmt.PacketInfo{ID: 9}}
	buf = tracefmt.AppendRecord(buf, &r)
	a := analyzeBytes(t, buf)
	if len(a.pkts) != 0 {
		t.Fatalf("unpaired eject produced %d packets, want 0", len(a.pkts))
	}
}

func TestRenderReport(t *testing.T) {
	a := analyzeBytes(t, buildTrace(t))
	var out strings.Builder
	if err := a.render(&out, 3, true); err != nil {
		t.Fatalf("render: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"7 records",
		"2 delivered packets",
		"overlap ratio 0.67",
		"engine starts per router",
		"engine utilization",
		"slowest packets",
		"1->2", // p2's route in the slowest table
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q\n---\n%s", want, s)
		}
	}
	// Determinism: rendering twice yields identical bytes.
	var again strings.Builder
	if err := a.render(&again, 3, true); err != nil {
		t.Fatalf("render#2: %v", err)
	}
	if again.String() != s {
		t.Error("render output not deterministic")
	}
}

// TestSlowestTieBreakByPacketID is the regression test for the top-N
// "slowest packets" ordering: packets with equal latency must be listed
// by ascending packet ID, no matter the order they were delivered in —
// the report has to be byte-stable across runs.
func TestSlowestTieBreakByPacketID(t *testing.T) {
	var buf []byte
	buf = tracefmt.AppendHeader(buf, 4)
	rec := func(r tracefmt.Record) {
		buf = tracefmt.AppendRecord(buf, &r)
	}
	// One genuinely slower packet (id 6, total 40) and four packets tied
	// at total 20, delivered in a deliberately scrambled id order.
	tied := []uint64{5, 3, 8, 1}
	for i, id := range tied {
		p := tracefmt.PacketInfo{ID: id, Src: 0, Dst: 3, Flits: 5, Hops: 2}
		rec(tracefmt.Record{Cycle: uint64(i), Router: 0, Kind: tracefmt.KindInject, HasPacket: true, Pkt: p})
		rec(tracefmt.Record{Cycle: uint64(i) + 20, Router: 3, Kind: tracefmt.KindEject, HasPacket: true, Pkt: p})
	}
	slow := tracefmt.PacketInfo{ID: 6, Src: 1, Dst: 2, Flits: 5, Hops: 2}
	rec(tracefmt.Record{Cycle: 0, Router: 1, Kind: tracefmt.KindInject, HasPacket: true, Pkt: slow})
	rec(tracefmt.Record{Cycle: 40, Router: 2, Kind: tracefmt.KindEject, HasPacket: true, Pkt: slow})

	a := analyzeBytes(t, buf)
	var out strings.Builder
	if err := a.renderSlowest(&out, 5); err != nil {
		t.Fatalf("renderSlowest: %v", err)
	}
	var ids []string
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && strings.Contains(f[1], "->") {
			ids = append(ids, f[0])
		}
	}
	want := []string{"6", "1", "3", "5", "8"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("slowest-packet order = %v, want %v (latency desc, then packet ID asc)", ids, want)
	}
}

func TestRenderEmptyTrace(t *testing.T) {
	var buf []byte
	buf = tracefmt.AppendHeader(buf, 4)
	a := analyzeBytes(t, buf)
	var out strings.Builder
	if err := a.render(&out, 5, true); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(out.String(), "empty trace") {
		t.Errorf("want empty-trace notice, got %q", out.String())
	}
}

// TestViewMatchesNocBreakdown cross-checks the offline analysis against
// the simulator: every packet a traced DISCO mesh delivers must get the
// same latency split from its trace records as noc.Packet.Breakdown
// gives the packet itself at ejection.
func TestViewMatchesNocBreakdown(t *testing.T) {
	cfg := noc.DefaultConfig()
	dc := disco.DefaultConfig(compress.NewDelta())
	cfg.Disco = &dc
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bt := noc.NewBinaryTracer(&buf, cfg.Nodes())
	n.SetTracer(bt)
	want := map[uint64]tracefmt.LatencyBreakdown{}
	n.OnEject = func(_ int, pkt *noc.Packet) {
		want[pkt.ID] = pkt.Breakdown()
		n.ReleasePacket(pkt)
	}
	tc := noc.DefaultTraffic()
	tc.Seed, tc.InjectionRate = 7, 0.08
	g := noc.NewTrafficGen(n, tc)
	for cycle := 0; cycle < 300; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("network did not drain")
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	a := analyzeBytes(t, buf.Bytes())
	if len(a.pkts) != len(want) {
		t.Fatalf("trace delivered %d packets, the network %d", len(a.pkts), len(want))
	}
	var engine, clamped int
	for _, v := range a.pkts {
		if v.LatencyBreakdown != want[v.id] {
			t.Errorf("packet %d: trace view %+v, noc %+v", v.id, v.LatencyBreakdown, want[v.id])
		}
		if v.Engine > 0 {
			engine++
		}
		if v.Queue+v.Engine+v.Serialization != v.Total {
			clamped++
		}
	}
	t.Logf("%d packets, %d with exposed engine stalls", len(a.pkts), engine)
	if engine == 0 {
		t.Error("no packet stalled behind an engine; the load exercises too little")
	}
	if clamped != 0 {
		t.Errorf("%d packets' components do not sum to their latency", clamped)
	}
}
