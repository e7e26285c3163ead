package noc

import (
	"bytes"
	"fmt"
	"math/bits"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/metrics"
	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/stats"
	"github.com/disco-sim/disco/internal/tracefmt"
)

// arrival is a flit in flight on a link, applied at the start of the next
// cycle (1-cycle link traversal).
type arrival struct {
	router *Router
	port   Port
	vc     int
	pkt    *Packet
	head   bool
	tail   bool
}

// niState is a node's injection side: a FIFO of packets plus per-VC
// streaming state. The NI fills every free local input VC (so backlogged
// packets are visible to the router — and to the DISCO engine) but feeds
// at most one flit per cycle over the NI link, round-robin across the
// active streams.
type niState struct {
	// queue is an index-fronted FIFO: qhead marks the first waiting
	// packet, and a drained queue resets to [:0] so the backing array is
	// reused. Popping by reslicing instead would shrink append's spare
	// capacity with every pop and force a reallocation every few pushes.
	queue    []*Packet
	qhead    int
	stream   []*Packet // per local VC: packet being streamed, nil if idle
	streamed []int     // flits already streamed into the VC
	active   int       // non-nil entries of stream (injection fast path)
	rr       int       // round-robin pointer over VCs
}

// qlen is the number of waiting packets.
func (ni *niState) qlen() int { return len(ni.queue) - ni.qhead }

// qpop removes and returns the oldest waiting packet.
func (ni *niState) qpop() *Packet {
	p := ni.queue[ni.qhead]
	ni.queue[ni.qhead] = nil
	ni.qhead++
	if ni.qhead == len(ni.queue) {
		ni.queue = ni.queue[:0]
		ni.qhead = 0
	}
	return p
}

// setStream opens a stream on VC v; clearStream closes it. All stream
// slot writes go through these so active stays exact — Step drops a
// node from niLive once it has no queue and no open stream.
func (ni *niState) setStream(v int, p *Packet) {
	ni.stream[v] = p
	ni.streamed[v] = 0
	ni.active++
}

func (ni *niState) clearStream(v int) {
	ni.stream[v] = nil
	ni.active--
}

// Stats aggregates network-level counters.
type Stats struct {
	Injected uint64
	Ejected  uint64
	// FlitHops counts flit-link traversals between routers (energy model
	// input); ejections and injections are counted separately.
	FlitHops      uint64
	FlitsSwitched uint64 // crossbar traversals (incl. ejection)
	// FlitHopsByClass splits FlitHops by traffic class (request/response/
	// coherence) — the Section 3.3C observation that response payloads
	// dominate bandwidth, which justifies compressing only them.
	FlitHopsByClass [3]uint64
	// PacketLatency tracks inject→eject latency of ejected packets.
	PacketLatency stats.Mean
	// DataLatency tracks the same for response packets only.
	DataLatency stats.Mean
	// QueueCycles tracks per-packet accumulated stall cycles.
	QueueCycles stats.Mean
	// QueueDelay/EngineDelay/SerialDelay are the per-packet latency
	// breakdown components of ejected packets (see LatencyBreakdown).
	QueueDelay  stats.Mean
	EngineDelay stats.Mean
	SerialDelay stats.Mean
	// PktEngineCycles sums engine service time over ejected packets;
	// PktEngineExposed is the subset that surfaced as stall cycles. The
	// difference is the engine latency hidden under queuing — see
	// Stats.OverlapRatio.
	PktEngineCycles  uint64
	PktEngineExposed uint64
	// Engine statistics summed over routers.
	Compressions   uint64
	Decompressions uint64
	EngineReleases uint64
	EngineFailures uint64
	EngineBusy     uint64
	// EjectedWrongForm counts data packets that reached their destination
	// in the wrong form and need a residual conversion at the NI.
	EjectedWrongForm uint64
}

// OverlapRatio reports the fraction of DISCO engine service time (over
// ejected packets) that was hidden under stall cycles the packet would
// have paid anyway — the paper's Section 3.2 overlap claim as a single
// number. 0 when no packet was engine-processed.
func (s *Stats) OverlapRatio() float64 {
	if s.PktEngineCycles == 0 {
		return 0
	}
	return float64(s.PktEngineCycles-s.PktEngineExposed) / float64(s.PktEngineCycles)
}

// Network is the mesh simulator. Create with New, drive with Step.
type Network struct {
	cfg     Config
	Routers []*Router
	Cycle   uint64

	ni      []niState
	pending []arrival
	// niLive has bit i set exactly while node i's NI has a waiting packet
	// or an open stream (qlen() > 0 || active > 0): Inject sets it, the
	// injection epilogue clears it once the NI drains.
	niLive []uint64
	// active is the per-cycle list of busy routers in index order,
	// refilled by Step after the prologue; every stage and commit of the
	// cycle walks it, so idle routers cost nothing past that one scan.
	active []*Router
	stats  Stats

	// Packet/block arenas: ejected pool-born packets (and the payload
	// blocks they own) are recycled instead of feeding the garbage
	// collector — at the NI, or through ReleasePacket when an OnEject
	// owner holds them past ejection. Fixed-capacity, index-managed
	// (push/pop by pktFree / blkFree, never append) so Step stays
	// allocation-free, with or without the fault layer armed.
	pktPool []*Packet
	pktFree int
	blkPool [][]byte
	blkFree int

	// stepping is true while a Step is applying staged effects (see
	// DESIGN.md §9), so observers can refuse to sample mid-cycle state.
	stepping bool

	// OnEject is called when a packet fully leaves the network at node.
	// The NI-level residual de/compression latency is the receiver's
	// concern (see internal/cmp); the network only reports the event.
	OnEject func(node int, pkt *Packet)

	tracer Tracer

	// Fault injection (nil unless cfg.Fault arms at least one class).
	fault          *fault.Injector
	creditRestores []creditRestore
	// creditHead indexes the first undelivered entry of creditRestores;
	// popping by index (instead of reslicing the front away) lets the
	// drained queue reset to [:0] and reuse its backing array.
	creditHead     int
	sinkRecoveries uint64
	creditsLost    uint64
	creditsHealed  uint64
	decoders       map[string]compress.Algorithm // sink-verification decoders
	sinkBlock      [compress.BlockSize]byte      // decodeComp's output

	// Metrics attachment (see AttachMetrics).
	mreg      *metrics.Registry
	minterval uint64

	// Stage-level wall-clock profiler (see profile.go); nil unless
	// AttachProfiler armed it. Purely observational by contract.
	prof *obs.PhaseProfiler
}

// creditRestore schedules the return of one fault-dropped credit. The
// recovery delay is a constant, so the queue is naturally ordered by at.
type creditRestore struct {
	at uint64
	vc *vcBuf
}

// New builds a network from cfg.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Everything the cycle loop touches is sized here, once: Step and the
	// stages it drives must not allocate (enforced by discolint hotalloc).
	n := &Network{
		cfg:      cfg,
		ni:       make([]niState, cfg.Nodes()),
		niLive:   make([]uint64, (cfg.Nodes()+63)/64),
		active:   make([]*Router, 0, cfg.Nodes()),
		decoders: make(map[string]compress.Algorithm),
	}
	for i := range n.ni {
		n.ni[i].stream = make([]*Packet, cfg.VCs)
		n.ni[i].streamed = make([]int, cfg.VCs)
	}
	if cfg.Fault.Enabled() {
		n.fault = fault.NewInjector(*cfg.Fault)
		if cfg.Disco != nil {
			// Sink verification must decode with the live instance:
			// statistical compressors (SC², FVC) need their trained
			// tables, which a fresh constructor would lack.
			n.RegisterDecoder(cfg.Disco.Algorithm)
		}
	}
	n.Routers = make([]*Router, cfg.Nodes())
	for i := range n.Routers {
		n.Routers[i] = newRouter(i, n)
	}
	for _, r := range n.Routers {
		r.wireNeighbors()
	}
	// Arena capacity: in-flight packets are bounded by buffer space, but
	// NI backlogs near saturation push the live population well past it;
	// 16 per node covers a loaded mesh, and overflow simply allocates as
	// before (the arena is an optimization, never a limit).
	poolCap := 16 * cfg.Nodes()
	n.pktPool = make([]*Packet, poolCap)
	n.blkPool = make([][]byte, poolCap)
	return n, nil
}

// TakePacket lends a zeroed packet from the network's arena, or
// allocates one when the arena is empty. Fill it with InitControl or
// InitData. The network reclaims it at ejection unless OnEject is set;
// an OnEject owner hands it back with ReleasePacket once done with it.
func (n *Network) TakePacket() *Packet {
	if n.pktFree == 0 {
		return &Packet{pooled: true}
	}
	n.pktFree--
	p := n.pktPool[n.pktFree]
	n.pktPool[n.pktFree] = nil
	return p
}

// takeBlock pops a recycled payload block, or allocates a fresh one.
func (n *Network) takeBlock() []byte {
	if n.blkFree == 0 {
		return make([]byte, compress.BlockSize)
	}
	n.blkFree--
	b := n.blkPool[n.blkFree]
	n.blkPool[n.blkFree] = nil
	return b
}

// ReleasePacket returns an ejected packet to the arena; packets the
// arena did not lend are ignored. Neither tracers (they receive value
// records) nor the fault layer (its shadow recovery reads the retained
// block only before ejection) block reclamation. The caller must hold
// no reference to p afterwards.
func (n *Network) ReleasePacket(p *Packet) {
	if !p.pooled {
		return
	}
	if b := p.Block; p.ownsBlock && len(b) == compress.BlockSize && n.blkFree < len(n.blkPool) {
		n.blkPool[n.blkFree] = b
		n.blkFree++
	}
	*p = Packet{pooled: true}
	if n.pktFree < len(n.pktPool) {
		n.pktPool[n.pktFree] = p
		n.pktFree++
	}
}

// FaultEnabled reports whether a fault injector is armed.
func (n *Network) FaultEnabled() bool { return n.fault != nil }

// RegisterDecoder makes alg available to the fault layer's sink
// integrity check. Callers that inject pre-compressed payloads encoded
// by a stateful (trained) compressor should register that instance.
func (n *Network) RegisterDecoder(alg compress.Algorithm) {
	if alg == nil {
		return
	}
	if n.decoders == nil {
		n.decoders = make(map[string]compress.Algorithm)
	}
	n.decoders[alg.Name()] = alg
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Inject queues a packet for injection at its source node's NI.
func (n *Network) Inject(p *Packet) {
	if p.Src < 0 || p.Src >= n.cfg.Nodes() || p.Dst < 0 || p.Dst >= n.cfg.Nodes() {
		// A protocol bug, not a configuration error: geometry limits are
		// rejected by Config.Validate before the network exists.
		panic(fmt.Sprintf("noc: inject with bad src/dst %d->%d", p.Src, p.Dst))
	}
	if p.Src == p.Dst {
		// Local delivery bypasses the network (NI loopback).
		p.InjectCycle = n.Cycle
		n.stats.Injected++
		n.eject(p.Dst, p)
		return
	}
	p.InjectCycle = n.Cycle
	n.stats.Injected++
	n.trace(p.Src, tracefmt.KindInject, p)
	n.ni[p.Src].queue = append(n.ni[p.Src].queue, p)
	n.niLive[p.Src/64] |= 1 << uint(p.Src%64)
}

// InjectQueueLen returns the backlog at node's NI.
func (n *Network) InjectQueueLen(node int) int {
	ni := &n.ni[node]
	return ni.qlen() + ni.active
}

// eject delivers a packet to the node's NI.
func (n *Network) eject(node int, pkt *Packet) {
	if n.fault != nil {
		n.verifyAtSink(node, pkt)
	}
	pkt.EjectCycle = n.Cycle
	n.stats.Ejected++
	lat := float64(pkt.EjectCycle - pkt.InjectCycle)
	n.stats.PacketLatency.Add(lat)
	n.stats.QueueCycles.Add(float64(pkt.Queueing))
	bd := pkt.Breakdown()
	n.stats.QueueDelay.Add(float64(bd.Queue))
	n.stats.EngineDelay.Add(float64(bd.Engine))
	n.stats.SerialDelay.Add(float64(bd.Serialization))
	n.stats.PktEngineCycles += bd.EngineBusy
	n.stats.PktEngineExposed += bd.Engine
	if pkt.Class == ClassResponse {
		n.stats.DataLatency.Add(lat)
	}
	if !pkt.InWantedForm() {
		n.stats.EjectedWrongForm++
	}
	n.trace(node, tracefmt.KindEject, pkt)
	if n.OnEject != nil {
		// The protocol layer owns the packet now and releases it itself.
		n.OnEject(node, pkt)
		return
	}
	n.ReleasePacket(pkt)
}

// verifyAtSink is the end-to-end integrity check active whenever fault
// injection is armed: a compressed payload that no longer decodes to the
// packet's retained original (a bit-flip that survived to the sink) is
// recovered by delivering the uncompressed original instead — the
// shadow-packet guarantee extended to the NI. Corruption is therefore
// always caught and recovered, never silently delivered.
func (n *Network) verifyAtSink(node int, pkt *Packet) {
	if n.fault.Spec().PayloadRate <= 0 ||
		!pkt.Compressed || !pkt.Compressible || len(pkt.Block) == 0 {
		return
	}
	if block, err := n.decodeComp(pkt.Comp); err == nil && bytes.Equal(block, pkt.Block) {
		return
	}
	n.sinkRecoveries++
	n.trace(node, tracefmt.KindFaultRecover, pkt)
	pkt.ApplyDecompression()
}

// decodeComp decompresses an encoding into the network's sink scratch
// block with a per-algorithm decoder cache (the sink check must not
// disturb any engine state). The result is valid until the next call.
func (n *Network) decodeComp(c compress.Compressed) ([]byte, error) {
	alg, ok := n.decoders[c.Alg]
	if !ok {
		alg, _ = compress.New(c.Alg) // nil for unknown names
		n.decoders[c.Alg] = alg
	}
	if alg == nil {
		return nil, fmt.Errorf("noc: no decoder for algorithm %q", c.Alg)
	}
	if err := alg.DecompressInto(&n.sinkBlock, c); err != nil {
		return nil, err
	}
	return n.sinkBlock[:], nil
}

// Step advances the network by one cycle of the two-phase engine: each
// pipeline stage runs its compute over the cycle's busy routers, then
// commits the staged effects in canonical router-index order. The stage
// sequence matches the classic phase order (engines, SA+ST, VA, RC,
// DISCO arbitration, NI injection).
func (n *Network) Step() {
	n.stepping = true
	// Profiling stamps (profile.go): t threads through the commit and
	// other regions; runStage stamps each compute stage itself.
	t := n.profClock()
	// Prologue: due credit recoveries land (fault injection only;
	// the queue is ordered by restore cycle), then link arrivals land in
	// input buffers — these are last cycle's committed effects becoming
	// this cycle's prior state.
	for n.creditHead < len(n.creditRestores) && n.creditRestores[n.creditHead].at <= n.Cycle {
		n.creditRestores[n.creditHead].vc.restoreCredit()
		n.creditsHealed++
		n.creditHead++
	}
	if n.creditHead == len(n.creditRestores) {
		// Queue drained: reset to the front so the backing array is
		// reused instead of regrown (amortized zero-allocation).
		n.creditRestores = n.creditRestores[:0]
		n.creditHead = 0
	}
	pend := n.pending
	n.pending = n.pending[:0]
	for _, a := range pend {
		e := &a.router.in[a.port][a.vc]
		if a.head {
			if e.pkt != nil {
				panic("noc: head flit arrived at occupied VC")
			}
			e.attachPacket(a.pkt)
		}
		e.acceptFlit()
	}
	// Idle routers (no flits present or expected) skip all stages: the
	// busy set is fixed here for the whole cycle, so a router that turns
	// busy mid-cycle is picked up next cycle.
	busy := n.active[:0]
	for _, r := range n.Routers {
		if r.busy() {
			busy = append(busy, r)
		}
	}
	n.active = busy
	t = n.profMark(obs.PhaseOther, t)
	// Each stage's compute covers every busy router before its commit
	// runs: fused per router, a commit's effects (e.g. a traversal
	// shrinking a VC's occupancy, which the upstream SA credit check
	// reads) would reach later routers' computes in the same cycle,
	// which the two-phase order puts after the commit.
	//
	// Stage: DISCO engines (commit, absorb, complete) — pure compute, no
	// shared effects beyond its trace events.
	n.runStage(busy, obs.PhaseEngine, (*Router).computeEngine)
	// Stage: switch allocation — compute arbitrates against prior-cycle
	// credits, commit applies stall bookkeeping and winner traversals
	// (flit moves, credit reservations, ejections, fault draws).
	n.runStage(busy, obs.PhaseSA, (*Router).computeSA)
	t = n.profClock()
	for _, r := range busy {
		r.commitSA()
	}
	t = n.profMark(obs.PhaseCommit, t)
	// Stage: allocation-side computes (VA, RC, DISCO arbitration fused
	// per router), then the arbitration commit (engine job starts).
	n.runStage(busy, obs.PhaseAlloc, (*Router).computeAlloc)
	t = n.profClock()
	for _, r := range busy {
		r.commitArb()
	}
	t = n.profMark(obs.PhaseCommit, t)
	// Epilogue: NI injection (one flit per node per cycle) over the NIs
	// with work, in node order; an NI that drained leaves the set.
	for w, word := range n.niLive {
		for m := word; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			node := w*64 + b
			n.stepInjection(node)
			if ni := &n.ni[node]; ni.qlen() == 0 && ni.active == 0 {
				n.niLive[w] &^= 1 << uint(b)
			}
		}
	}
	n.Cycle++
	n.stepping = false
	n.sampleMetrics()
	if n.prof != nil {
		n.prof.Observe(obs.PhaseOther, t)
		n.prof.AddStep()
	}
}

// runStage applies f to every busy router (in index order) and stamps
// the stage as ph on the profiler (when armed). f must follow the
// compute-phase contract — read prior-cycle state, write only
// router-local state (staged effects, own scratch, own VC/engine
// fields); the phasesafety analyzer checks it from this call's roots.
func (n *Network) runStage(busy []*Router, ph obs.Phase, f func(*Router)) {
	start := n.profClock()
	for _, r := range busy {
		f(r)
	}
	if n.prof != nil {
		n.prof.Observe(ph, start)
	}
}

// AtCommitBoundary reports whether the network is between cycles: all
// staged effects of the previous Step are committed and no compute is in
// flight. Observers (stats, snapshots, the cmp progress watchdog) must
// only sample at commit boundaries — mid-step state is partially staged.
func (n *Network) AtCommitBoundary() bool { return !n.stepping }

// trace records an event from a compute phase. It is the one sanctioned
// emission point for compute code (the phasesafety analyzer flags a
// direct Network.trace there): the event stamps only observational
// state — the packet's Lifetime and the tracer — which no compute reads.
func (r *Router) trace(kind tracefmt.Kind, pkt *Packet) { r.net.trace(r.id, kind, pkt) }

// stepInjection assigns queued packets to free local input VCs and
// streams one flit over the NI link (round-robin across active streams).
// Step calls it only for NIs in niLive.
func (n *Network) stepInjection(node int) {
	ni := &n.ni[node]
	r := n.Routers[node]
	// Fill free VCs from the queue so waiting packets are buffered where
	// the router (and the DISCO arbitrator) can see them.
	for v := range r.in[Local] {
		if ni.qlen() == 0 {
			break
		}
		e := &r.in[Local][v]
		if ni.stream[v] == nil && e.pkt == nil && e.reserved == 0 {
			ni.setStream(v, ni.qpop())
			e.attachPacket(ni.stream[v])
		}
	}
	// One flit of NI link bandwidth, round-robin over active streams.
	vcs := n.cfg.VCs
	for off := 0; off < vcs; off++ {
		v := (ni.rr + off) % vcs
		p := ni.stream[v]
		if p == nil {
			continue
		}
		e := &r.in[Local][v]
		if e.pkt != p {
			// The packet left the VC entirely (possible for transformed
			// or short packets); its remaining flits were already
			// accounted.
			ni.clearStream(v)
			continue
		}
		if ni.streamed[v] >= p.FlitCount {
			ni.clearStream(v)
			continue
		}
		if e.occupancy() >= n.cfg.BufDepth {
			continue // buffer full; try another stream
		}
		ni.streamed[v]++
		e.acceptNIFlit()
		if ni.streamed[v] >= p.FlitCount {
			ni.clearStream(v)
		}
		ni.rr = (v + 1) % vcs
		return
	}
}

// Quiescent reports whether no packet is anywhere in the network (buffers,
// links, NIs).
func (n *Network) Quiescent() bool {
	if len(n.pending) > 0 {
		return false
	}
	for _, w := range n.niLive {
		if w != 0 {
			return false
		}
	}
	for _, r := range n.Routers {
		if r.live != 0 {
			return false
		}
	}
	return true
}

// RunUntilQuiescent steps until the network drains or maxCycles elapse;
// it returns false on timeout (useful for deadlock detection in tests).
func (n *Network) RunUntilQuiescent(maxCycles uint64) bool {
	for i := uint64(0); i < maxCycles; i++ {
		if n.Quiescent() {
			return true
		}
		n.Step()
	}
	return n.Quiescent()
}

// LinkUtilization reports per-link flit utilization (flits sent over
// elapsed cycles) as (max, mean) over all inter-router links. Useful to
// judge how congested the fabric — as opposed to the endpoints — is.
func (n *Network) LinkUtilization() (max, mean float64) {
	if n.Cycle == 0 {
		return 0, 0
	}
	links := 0
	var sum float64
	for _, r := range n.Routers {
		for p := Port(0); p < Local; p++ {
			if n.cfg.neighbor(r.id, p) < 0 {
				continue
			}
			links++
			u := float64(r.linkFlits[p]) / float64(n.Cycle)
			sum += u
			if u > max {
				max = u
			}
		}
	}
	if links == 0 {
		return 0, 0
	}
	return max, sum / float64(links)
}

// scheduleCreditRestore queues the link-level recovery of one credit
// dropped on vc.
func (n *Network) scheduleCreditRestore(vc *vcBuf) {
	n.creditsLost++
	n.creditRestores = append(n.creditRestores,
		creditRestore{at: n.Cycle + n.fault.Spec().CreditRecovery, vc: vc})
}

// FaultStats aggregates the fault-injection and recovery counters. It is
// reported (and serialized) only when an injector is armed, so fault-free
// results stay byte-identical to a build without the fault layer.
type FaultStats struct {
	// EngineFaults counts injected engine faults (stuck-busy aborts).
	EngineFaults uint64
	// BreakerTrips counts circuit-breaker openings (engine bypass after
	// K consecutive faults); BreakerOpen counts engines bypassed now.
	BreakerTrips uint64
	BreakerOpen  int
	// PayloadFlips counts injected bit-flips; EngineRecoveries counts
	// corrupt payloads caught at an in-network decompression and
	// recovered from the retained original (shadow semantics), and
	// SinkRecoveries the same at ejection.
	PayloadFlips     uint64
	EngineRecoveries uint64
	SinkRecoveries   uint64
	// CreditsDropped/CreditsRestored count link credit losses and their
	// recoveries; CreditsOutstanding is the gap at snapshot time.
	CreditsDropped     uint64
	CreditsRestored    uint64
	CreditsOutstanding int
}

// Recoveries sums every recovery path (engine faults are recovered by
// definition: the shadow packet continues uncompressed).
func (f *FaultStats) Recoveries() uint64 {
	return f.EngineFaults + f.EngineRecoveries + f.SinkRecoveries
}

// String renders a compact summary.
func (f *FaultStats) String() string {
	return fmt.Sprintf(
		"engine faults %d (breaker trips %d, open %d); payload flips %d (recovered %d in-network, %d at sink); credits lost %d (restored %d, outstanding %d)",
		f.EngineFaults, f.BreakerTrips, f.BreakerOpen,
		f.PayloadFlips, f.EngineRecoveries, f.SinkRecoveries,
		f.CreditsDropped, f.CreditsRestored, f.CreditsOutstanding)
}

// FaultStats folds the per-router fault counters into one snapshot, or
// nil when fault injection is not armed.
func (n *Network) FaultStats() *FaultStats {
	if n.fault == nil {
		return nil
	}
	fs := &FaultStats{
		SinkRecoveries:  n.sinkRecoveries,
		CreditsDropped:  n.creditsLost,
		CreditsRestored: n.creditsHealed,
	}
	for _, r := range n.Routers {
		fs.EngineFaults += r.faultEngineFaults
		fs.BreakerTrips += r.breakerTrips
		if r.breakerOpen {
			fs.BreakerOpen++
		}
		fs.PayloadFlips += r.faultPayloadFlips
		fs.EngineRecoveries += r.faultRecoveries
	}
	fs.CreditsOutstanding = int(fs.CreditsDropped - fs.CreditsRestored)
	return fs
}

// Stats returns a snapshot of the network counters, folding in per-router
// engine statistics.
func (n *Network) Stats() Stats {
	s := n.stats
	for _, r := range n.Routers {
		s.FlitsSwitched += r.flitsSwitched
		s.EngineReleases += uint64(r.engineReleases)
		if r.engine != nil {
			s.Compressions += r.engine.Compressions
			s.Decompressions += r.engine.Decompressions
			s.EngineFailures += r.engine.Failures
			s.EngineBusy += r.engine.BusyCycles
		}
	}
	return s
}
