package cmp

import (
	"fmt"

	"github.com/disco-sim/disco/internal/cache"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/energy"
	"github.com/disco-sim/disco/internal/mem"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/stats"
	"github.com/disco-sim/disco/internal/trace"
)

// msgKind enumerates protocol messages.
type msgKind int

const (
	mGetS     msgKind = iota // core -> home: read miss
	mGetX                    // core -> home: write miss / upgrade
	mData                    // home -> core: data grant
	mGrantX                  // home -> core: dataless upgrade grant
	mUnblock                 // core -> home: transaction complete
	mInv                     // home -> sharer: invalidate
	mInvAck                  // sharer -> home
	mFetch                   // home -> owner: send data, downgrade to O
	mFetchInv                // home -> owner: send data, invalidate
	mOwnerWB                 // owner -> home: data for Fetch/FetchInv
	mWB                      // core -> home: L1 victim writeback (data)
	mMemRead                 // home -> MC
	mMemData                 // MC -> home (data)
	mMemWB                   // home -> MC: dirty LLC victim (data)
)

// message is the protocol payload attached to noc.Packet.Meta. Messages
// are recycled through the System's free list: one is taken per packet
// sent and released once its handler has run, or — when parked behind a
// transaction — once finishTxn drains it.
type message struct {
	kind      msgKind
	addr      cache.Addr
	requester int // original requesting tile
	txnID     uint64
	grant     cache.CohState
	// dramCycles is the off-chip service time accumulated by this
	// transaction (DRAM queue + access). The paper's headline metric is
	// *on-chip* data access latency (Fig. 1: routing + de/compression +
	// bank access), so the requester subtracts this from the end-to-end
	// miss time.
	dramCycles uint64
	// cohCycles is coherence serialization (time queued behind another
	// transaction on the same line, plus invalidation/owner-fetch
	// round-trips), likewise excluded from the Fig. 1 path.
	cohCycles uint64
	// arrivedAt stamps when a request reached the home (waiter-delay
	// bookkeeping).
	arrivedAt uint64
	// parked marks a message queued in a txn's waiters: its dispatch
	// does not release it.
	parked bool
	next   *message // free-list link
}

// takeMessage returns a zeroed message from the free list, or a new one.
func (s *System) takeMessage() *message {
	m := s.freeMsgs
	if m == nil {
		return &message{}
	}
	s.freeMsgs = m.next
	m.next = nil
	return m
}

// releaseMessage recycles a message nothing references any more.
func (s *System) releaseMessage(m *message) {
	*m = message{next: s.freeMsgs}
	s.freeMsgs = m
}

// System is one full-system simulation instance.
type System struct {
	cfg Config
	net *noc.Network

	cores []*coreState
	l1s   []*cache.L1
	banks []*cache.Bank
	// mcNodes lists all memory-controller tiles; drams[i] is the channel
	// behind mcNodes[i].
	mcNodes []int
	drams   []*mem.DRAM

	events eventQueue
	now    uint64

	txns         []map[cache.Addr]*txn
	nextTxnID    uint64
	nextPktID    uint64
	compCache    map[cache.Addr]compress.Compressed
	contentCache map[cache.Addr][]byte
	contentArena []byte           // chunked backing store for contentCache blocks
	payloadArena []byte           // chunked backing store for compCache payloads
	contentGen   trace.ContentGen // this system's block materializer
	sc2Trained   bool

	// Free lists of recycled protocol objects; they grow lazily to the
	// peak number in flight.
	freeMsgs *message
	freeTxns *txn

	// Stats.
	missLatency  stats.Mean // on-chip component (the paper's metric)
	missTotal    stats.Mean // end-to-end, DRAM included
	missHist     *stats.Histogram
	l2Hits       uint64
	l2Misses     uint64
	bankAccesses uint64
	bankBytes    uint64
	bankProbes   uint64
	compOps      uint64 // endpoint (bank/NI) compressions
	decompOps    uint64 // endpoint decompressions
	residualOps  uint64 // DISCO conversions paid at ejection
	wbPackets    uint64
	prefIssued   uint64
	prefUseful   uint64

	// Observability probe (see SetProbe): fn runs on the simulation
	// goroutine every probeEvery cycles, only at commit boundaries.
	probeEvery uint64
	probeFn    func()
}

// New builds a system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:          cfg,
		compCache:    make(map[cache.Addr]compress.Compressed),
		contentCache: make(map[cache.Addr][]byte),
		missHist:     stats.NewHistogram(1000, 10),
	}
	ncfg := noc.Config{K: cfg.K, VCs: cfg.VCs, BufDepth: cfg.BufDepth, FlowControl: cfg.FlowControl,
		Fault: cfg.Fault}
	if cfg.Mode == DISCO {
		dc := cfg.Disco
		if dc == nil {
			d := disco.DefaultConfig(cfg.Algorithm)
			dc = &d
		}
		ncfg.Disco = dc
	}
	net, err := noc.New(ncfg)
	if err != nil {
		return nil, err
	}
	s.net = net
	net.OnEject = s.onEject
	if net.FaultEnabled() && cfg.Algorithm != nil {
		// The sink integrity check must decode with the system's live
		// (possibly trained) compressor instance, not a fresh constructor.
		net.RegisterDecoder(cfg.Algorithm)
	}

	tiles := cfg.tiles()
	s.cores = make([]*coreState, tiles)
	s.l1s = make([]*cache.L1, tiles)
	s.banks = make([]*cache.Bank, tiles)
	s.txns = make([]map[cache.Addr]*txn, tiles)
	for i := 0; i < tiles; i++ {
		l1, err := cache.NewL1(cfg.L1Sets, cfg.L1Ways)
		if err != nil {
			return nil, err
		}
		s.l1s[i] = l1
		s.banks[i] = cache.NewBank(cache.BankConfig{
			Sets: cfg.BankSets, Ways: cfg.BankWays,
			TagFactor: cfg.tagFactor(), SegmentBytes: 8, Interleave: tiles,
		})
		s.txns[i] = make(map[cache.Addr]*txn)
		s.cores[i] = newCore(i, &cfg)
	}
	s.mcNodes = append([]int{cfg.MCNode}, cfg.ExtraMCNodes...)
	for range s.mcNodes {
		d, err := mem.New(mem.DefaultConfig())
		if err != nil {
			return nil, err
		}
		s.drams = append(s.drams, d)
	}
	s.trainSC2()
	return s, nil
}

// mcFor maps a block address to its memory controller index (block
// interleaving across channels).
func (s *System) mcFor(addr cache.Addr) int {
	return int((uint64(addr) / uint64(s.cfg.tiles())) % uint64(len(s.mcNodes)))
}

// mcNodeFor returns the tile hosting addr's memory controller.
func (s *System) mcNodeFor(addr cache.Addr) int { return s.mcNodes[s.mcFor(addr)] }

// dramAccesses sums all channels.
func (s *System) dramAccesses() uint64 {
	var n uint64
	for _, d := range s.drams {
		n += d.Accesses()
	}
	return n
}

// dramWrites sums write counts over all channels (used by tests).
func (s *System) dramWrites() uint64 {
	var n uint64
	for _, d := range s.drams {
		n += d.Writes
	}
	return n
}

// trainSC2 mirrors the value-sampling phase of the statistical
// compressors (SC², FVC): the shared table is built from a sample of the
// workload's blocks before measurement.
func (s *System) trainSC2() {
	type trainable interface {
		Observe([]byte)
		Retrain()
		Trained() bool
	}
	tr, ok := s.cfg.Algorithm.(trainable)
	if !ok || tr.Trained() {
		return
	}
	// Observe copies the values it samples, so one scratch block serves
	// the whole training loop.
	var scratch []byte
	for i := 0; i < 1024; i++ {
		scratch = s.contentGen.Append(&s.cfg.Profile, scratch[:0], trace.PrivateBase(i%8)+uint64(i*37))
		tr.Observe(scratch)
	}
	tr.Retrain()
	s.sc2Trained = true
}

// content returns a block's (eternal) value, memoized. Data values are a
// pure function of address so compressibility is a stable block property;
// see DESIGN.md §3. Cached blocks are carved out of a chunked arena so a
// long run costs one allocation per 256 blocks instead of one per block.
func (s *System) content(addr cache.Addr) []byte {
	if b, ok := s.contentCache[addr]; ok {
		return b
	}
	const arenaBlocks = 256
	if cap(s.contentArena)-len(s.contentArena) < compress.BlockSize {
		//lint:ignore hotalloc one chunk per 256 first-touched blocks; cached blocks are never freed
		s.contentArena = make([]byte, 0, arenaBlocks*compress.BlockSize)
	}
	off := len(s.contentArena)
	s.contentArena = s.contentGen.Append(&s.cfg.Profile, s.contentArena, uint64(addr))
	b := s.contentArena[off:len(s.contentArena):len(s.contentArena)]
	s.contentCache[addr] = b
	return b
}

// compressedFor returns (and caches) the block's compressed encoding.
// Payloads are appended into a chunked arena like content's; each is
// clipped to its own capacity, so no append can reach its neighbour.
// A chunk is replaced while it still has less than BlockSize spare
// bytes, so an encoding always fits.
func (s *System) compressedFor(addr cache.Addr) compress.Compressed {
	if c, ok := s.compCache[addr]; ok {
		return c
	}
	const arenaBlocks = 256
	if cap(s.payloadArena)-len(s.payloadArena) < compress.BlockSize {
		//lint:ignore hotalloc one chunk per 256 first-compressed blocks at most; cached payloads are never freed
		s.payloadArena = make([]byte, 0, arenaBlocks*compress.BlockSize)
	}
	off := len(s.payloadArena)
	c := s.cfg.Algorithm.AppendCompress(s.payloadArena, s.content(addr))
	s.payloadArena = c.Payload
	c.Payload = c.Payload[off:len(c.Payload):len(c.Payload)]
	s.compCache[addr] = c
	return c
}

// storedSize is the LLC storage cost of a block in the current mode.
func (s *System) storedSize(addr cache.Addr) int {
	if !s.cfg.Mode.usesCompression() {
		return compress.BlockSize
	}
	c := s.compressedFor(addr)
	if c.Stored {
		return compress.BlockSize
	}
	return c.SizeBytes()
}

// homeOf maps a block address to its home tile (block-interleaved NUCA).
func (s *System) homeOf(addr cache.Addr) int { return int(uint64(addr) % uint64(s.cfg.tiles())) }

// pktID mints a packet id.
func (s *System) pktID() uint64 {
	s.nextPktID++
	return s.nextPktID
}

// sendCtrl injects a single-flit control packet. Packets come from the
// network's arena and go back to it after dispatch (see fire).
func (s *System) sendCtrl(kind msgKind, addr cache.Addr, from, to int, txnID uint64, class noc.Class) {
	p := s.net.TakePacket().InitControl(s.pktID(), from, to, class)
	msg := s.takeMessage()
	msg.kind, msg.addr, msg.requester, msg.txnID = kind, addr, from, txnID
	p.Meta = msg
	s.net.Inject(p)
}

// dataSource describes who is injecting a data packet (the form rules
// differ per Section 4.1 mode).
type dataSource int

const (
	srcBank dataSource = iota // LLC bank (holds the stored form)
	srcCore                   // L1 writeback / owner forward
	srcMC                     // memory fill
)

// sendData builds and injects a data packet carrying addr's block,
// applying the mode's injection-side latency and wire form.
func (s *System) sendData(kind msgKind, addr cache.Addr, from, to int, txnID uint64, grant cache.CohState, src dataSource) {
	s.sendDataDram(kind, addr, from, to, txnID, grant, src, 0)
}

// sendDataDram is sendData with an off-chip service-time annotation that
// rides along to the requester (see message.dramCycles).
func (s *System) sendDataDram(kind msgKind, addr cache.Addr, from, to int, txnID uint64, grant cache.CohState, src dataSource, dram uint64) {
	s.sendDataCoh(kind, addr, from, to, txnID, grant, src, dram, 0)
}

// sendDataCoh additionally annotates coherence-serialization time (see
// message.cohCycles).
func (s *System) sendDataCoh(kind msgKind, addr cache.Addr, from, to int, txnID uint64, grant cache.CohState, src dataSource, dram, coh uint64) {
	msg := s.takeMessage()
	msg.kind, msg.addr, msg.requester, msg.txnID, msg.grant = kind, addr, from, txnID, grant
	msg.dramCycles, msg.cohCycles = dram, coh
	blk := s.content(addr)
	toBank := kind == mWB || kind == mOwnerWB || kind == mMemData
	delay := uint64(0)

	var p *noc.Packet
	switch s.cfg.Mode {
	case Baseline:
		p = s.net.TakePacket().InitData(s.pktID(), from, to, blk, false)
		p.Compressible = false
	case Ideal:
		// Zero-latency conversions everywhere: every payload travels in
		// its smallest form, free.
		p = s.net.TakePacket().InitData(s.pktID(), from, to, blk, toBank)
		p.Compressible = false
		if c := s.compressedFor(addr); !c.Stored {
			p.ApplyCompression(c)
		}
	case CC:
		// Bank decompresses before packetizing (payload travels raw).
		p = s.net.TakePacket().InitData(s.pktID(), from, to, blk, false)
		p.Compressible = false
		if src == srcBank && s.storedSize(addr) < compress.BlockSize {
			delay += uint64(s.cfg.Algorithm.DecompLatency())
			s.decompOps++
		}
	case CNC:
		// CC's bank behaviour plus an NI compressor on every data packet.
		p = s.net.TakePacket().InitData(s.pktID(), from, to, blk, false)
		p.Compressible = false
		if src == srcBank && s.storedSize(addr) < compress.BlockSize {
			delay += uint64(s.cfg.Algorithm.DecompLatency())
			s.decompOps++
		}
		if c := s.compressedFor(addr); !c.Stored {
			p.ApplyCompression(c)
		}
		delay += uint64(s.cfg.Algorithm.CompLatency())
		s.compOps++
	case DISCO:
		// Banks inject the stored form as-is; cores and the MC inject raw.
		p = s.net.TakePacket().InitData(s.pktID(), from, to, blk, toBank)
		if src == srcBank {
			if c := s.compressedFor(addr); !c.Stored {
				p.ApplyCompression(c)
			}
		}
	}
	p.Meta = msg
	if delay == 0 {
		s.net.Inject(p)
		return
	}
	s.events.push(event{cycle: s.now + delay, kind: evInject, pkt: p})
}

// onEject receives every packet leaving the network and dispatches it
// after the mode's ejection-side latency.
func (s *System) onEject(node int, p *noc.Packet) {
	delay := uint64(0)
	if p.Class == noc.ClassResponse {
		switch s.cfg.Mode {
		case CNC:
			if p.Compressed {
				delay += uint64(s.cfg.Algorithm.DecompLatency())
				s.decompOps++
			}
		case DISCO:
			if !p.InWantedForm() {
				// Residual conversion the in-network overlap did not hide.
				s.residualOps++
				if p.Compressed {
					delay += uint64(s.cfg.Algorithm.DecompLatency())
					s.decompOps++
				} else if !p.CompressionFailed {
					delay += uint64(s.cfg.Algorithm.CompLatency())
					s.compOps++
				}
			}
		}
	}
	s.events.push(event{cycle: s.now + delay, kind: evDispatch, node: node, pkt: p})
}

// dispatch routes a delivered message to its handler.
func (s *System) dispatch(node int, msg *message) {
	switch msg.kind {
	case mGetS, mGetX:
		s.homeRequest(node, msg)
	case mData, mGrantX:
		s.coreFill(node, msg)
	case mUnblock:
		s.homeUnblock(node, msg)
	case mInv:
		s.coreInv(node, msg)
	case mInvAck:
		s.homeAck(node, msg, false)
	case mFetch, mFetchInv:
		s.coreFetch(node, msg, msg.kind == mFetchInv)
	case mOwnerWB:
		s.homeAck(node, msg, true)
	case mWB:
		s.homeWriteback(node, msg)
	case mMemRead:
		s.mcRead(node, msg)
	case mMemData:
		s.homeMemData(node, msg)
	case mMemWB:
		s.mcWrite(node, msg)
	default:
		panic(fmt.Sprintf("cmp: unknown message kind %d", msg.kind))
	}
}

// Step advances the whole system one cycle.
func (s *System) Step() {
	s.runEvents()
	for _, c := range s.cores {
		c.step(s)
	}
	s.net.Step()
	s.now++
}

// finished reports whether every core completed its quota.
func (s *System) finished() bool {
	for _, c := range s.cores {
		if c.opsDone < s.cfg.WarmupOps+s.cfg.OpsPerCore {
			return false
		}
	}
	return true
}

// results snapshots all statistics.
func (s *System) results() Results {
	ns := s.net.Stats()
	var l1Hits, l1Misses uint64
	for _, l1 := range s.l1s {
		l1Hits += l1.Hits
		l1Misses += l1.Misses
	}
	engines := 0
	switch s.cfg.Mode {
	case CC:
		engines = s.cfg.tiles()
	case CNC:
		engines = 2 * s.cfg.tiles()
	case DISCO:
		engines = s.cfg.tiles()
	}
	counts := energy.Counts{
		Cycles:        s.now,
		FlitHops:      ns.FlitHops,
		FlitsSwitched: ns.FlitsSwitched,
		L1Accesses:    l1Hits + l1Misses,
		BankAccesses:  s.bankAccesses,
		BankBytes:     s.bankBytes,
		BankProbes:    s.bankProbes,
		DramAccesses:  s.dramAccesses(),
		CompOps:       s.compOps + ns.Compressions,
		DecompOps:     s.decompOps + ns.Decompressions,
		Routers:       s.cfg.tiles(),
		Banks:         s.cfg.tiles(),
		L1s:           s.cfg.tiles(),
		Engines:       engines,
	}
	model := energy.NewModel(s.cfg.algName())
	return Results{
		Fault:          s.net.FaultStats(),
		Mode:           s.cfg.Mode,
		Benchmark:      s.cfg.Profile.Name,
		Algorithm:      s.cfg.algName(),
		Cycles:         s.now,
		AvgMissLatency: s.missLatency.Mean(),
		AvgMissTotal:   s.missTotal.Mean(),
		MissLatencyP50: s.missHist.Percentile(50),
		MissLatencyP95: s.missHist.Percentile(95),
		Misses:         s.missLatency.N(),
		L1Hits:         l1Hits,
		L1Misses:       l1Misses,
		L2Hits:         s.l2Hits,
		L2Misses:       s.l2Misses,
		DramAccesses:   s.dramAccesses(),
		Net:            ns,
		ResidualOps:    s.residualOps,
		EndpointComp:   s.compOps,
		EndpointDecomp: s.decompOps,
		PrefetchIssued: s.prefIssued,
		PrefetchUseful: s.prefUseful,
		Energy:         model.Energy(counts),
	}
}

// Results summarizes one run.
type Results struct {
	Mode      Mode
	Benchmark string
	Algorithm string

	Cycles uint64
	// AvgMissLatency is the paper's headline metric: mean on-chip data
	// access latency of L1 misses (request issue to fill completion,
	// minus off-chip DRAM service time for L2 misses — "NoC delay and
	// cache bank access delay", Section 4.2).
	AvgMissLatency float64
	// AvgMissTotal is the end-to-end miss latency, DRAM included.
	AvgMissTotal   float64
	MissLatencyP50 float64
	MissLatencyP95 float64
	Misses         uint64

	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	DramAccesses     uint64

	Net noc.Stats
	// Fault reports the fault-injection and recovery counters; nil (and
	// omitted from JSON) unless an injector was armed, so fault-free
	// artifacts stay byte-identical.
	Fault *noc.FaultStats `json:",omitempty"`
	// ResidualOps counts DISCO conversions that were NOT hidden in the
	// network (paid at ejection).
	ResidualOps    uint64
	EndpointComp   uint64
	EndpointDecomp uint64
	// PrefetchIssued/Useful report the optional LLC prefetcher's activity.
	PrefetchIssued uint64
	PrefetchUseful uint64

	Energy energy.Breakdown
}

// Detailed renders a multi-line report (used by discosim -run).
func (r Results) Detailed() string {
	respShare := 0.0
	if r.Net.FlitHops > 0 {
		respShare = float64(r.Net.FlitHopsByClass[noc.ClassResponse]) / float64(r.Net.FlitHops)
	}
	faultLine := ""
	if r.Fault != nil {
		faultLine = fmt.Sprintf("\n  fault %s", r.Fault)
	}
	return fmt.Sprintf(
		"mode=%s bench=%s alg=%s\n"+
			"  cycles           %d\n"+
			"  on-chip latency  %.1f cycles (p50 %.0f, p95 %.0f); end-to-end %.1f\n"+
			"  L1   %d hits / %d misses (%.1f%% miss)\n"+
			"  L2   %d hits / %d misses; DRAM %d accesses\n"+
			"  NoC  %d packets, %d flit-hops (%.0f%% response), queueing %.1f cyc/pkt\n"+
			"  NoC  delay breakdown queue %.1f + serialization %.1f + engine %.1f cyc/pkt; overlap %.0f%% (%d of %d engine cycles hidden)\n"+
			"  comp endpoint %d+%d, in-network %d+%d, residual %d%s\n"+
			"  energy %s",
		r.Mode, r.Benchmark, r.Algorithm,
		r.Cycles,
		r.AvgMissLatency, r.MissLatencyP50, r.MissLatencyP95, r.AvgMissTotal,
		r.L1Hits, r.L1Misses, 100*float64(r.L1Misses)/float64(maxu(r.L1Hits+r.L1Misses, 1)),
		r.L2Hits, r.L2Misses, r.DramAccesses,
		r.Net.Ejected, r.Net.FlitHops, respShare*100, r.Net.QueueCycles.Mean(),
		r.Net.QueueDelay.Mean(), r.Net.SerialDelay.Mean(), r.Net.EngineDelay.Mean(),
		100*r.Net.OverlapRatio(), r.Net.PktEngineCycles-r.Net.PktEngineExposed, r.Net.PktEngineCycles,
		r.EndpointComp, r.EndpointDecomp, r.Net.Compressions, r.Net.Decompressions, r.ResidualOps, faultLine,
		r.Energy)
}

func maxu(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%-9s %-13s lat=%7.1f cycles=%8d L1miss=%6d L2miss=%6d dram=%5d flits=%8d E=%.1fuJ",
		r.Mode, r.Benchmark, r.AvgMissLatency, r.Cycles, r.L1Misses, r.L2Misses,
		r.DramAccesses, r.Net.FlitHops, r.Energy.Total()/1e6)
}
