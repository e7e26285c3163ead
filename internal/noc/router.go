package noc

import (
	"bytes"
	"math/bits"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/tracefmt"
)

// Router is one mesh router: a 3-stage pipeline (RC → VA/SA → ST+LT) with
// an optional DISCO engine + arbitrator.
type Router struct {
	id  int
	net *Network

	// vcs is the flat per-router VC storage, port-major (index p*VCs+v);
	// in[p] are per-port views into it. One contiguous array keeps the
	// whole input stage in a few cache lines and gives every VC a stable
	// bit position in the live mask.
	vcs      []vcBuf
	in       [NumPorts][]vcBuf
	outOwner [NumPorts][]*Packet // downstream VC allocation table
	vaRR     [NumPorts]int       // VA round-robin pointers (per output port)
	saRR     [NumPorts]int       // SA round-robin pointers (per output port)

	// live has bit p*VCs+v set exactly while in[p][v] holds or expects a
	// flit (pkt != nil or reserved != 0); vcBuf.syncLive maintains it from
	// the serial regions only. The compute stages iterate set bits in
	// ascending order — identical to the old port-major scan, so arbitration
	// order (and every artifact) is unchanged. Config.Validate caps
	// NumPorts*VCs at 64 bits.
	live uint64

	// neigh/oppIn cache the mesh wiring (wired once after construction):
	// the router behind each output port and its input VCs facing us.
	// They replace per-cycle Config.neighbor arithmetic on the hot paths.
	neigh [NumPorts]*Router
	oppIn [NumPorts][]vcBuf

	engine   *disco.Engine
	engineVC *vcBuf // VC whose packet the engine is processing

	// Stats.
	flitsSwitched  uint64
	flitsEjected   uint64
	engineStarts   uint64
	engineReleases uint64
	// linkFlits counts flits sent out of each port (link utilization).
	linkFlits [NumPorts]uint64

	// congestionEWMA tracks buffered-flit occupancy over capacity for
	// the adaptive-threshold extension (disco.Config.Adaptive).
	congestionEWMA float64

	// Fault injection state (all zero / dormant unless net.fault != nil).
	// The circuit breaker implements graceful degradation: after K
	// consecutive engine faults the arbitrator stops feeding this
	// router's engine (selective-compression bypass, Section 3.3C) and
	// re-arms once the cooldown elapses.
	breakerConsec     int
	breakerOpen       bool
	breakerOpenUntil  uint64
	breakerTrips      uint64
	faultEngineFaults uint64
	faultPayloadFlips uint64
	faultCreditDrops  uint64
	faultRecoveries   uint64 // corrupt payloads recovered at this engine

	// Per-cycle scratch buffers (avoid per-cycle allocation).
	vaReqs  [NumPorts][]*vcBuf
	saWants [NumPorts][]saWant
	arbVCs  []*vcBuf
	arbCand []disco.Candidate
	// flitScratch backs the flit-value slices fed to the engine (job
	// start, fragment absorb). The engine copies what it keeps, so the
	// array is reusable immediately.
	flitScratch [maxPacketFlits - 1]uint64

	// Staged effects of the two-phase engine (see DESIGN.md §9): the
	// compute phase of a stage records every effect that touches shared
	// state here; the commit phase applies them in canonical router
	// order. All are reused scratch, reset by their commit.
	saWinners   []*vcBuf // SA winners, in output-port order
	arbPick     *vcBuf   // DISCO arbitration pick (engine start at commit)
	arbPickCand disco.Candidate
	// SA stall bookkeeping, one vcBuf.bit per input VC whose packet
	// stalled this cycle: a VC stalls at most once per cycle (the
	// schedulable and unschedulable branches of computeSA are
	// exclusive), so a mask is the whole record. saEngineStalls is the
	// subset stalled solely by the engine lock.
	saStalls       uint64
	saEngineStalls uint64
}

// saWant is one switch-allocation request.
type saWant struct {
	e    *vcBuf
	ip   Port
	prio int
}

// busy reports whether the router holds or expects any flit.
func (r *Router) busy() bool {
	return r.live != 0 || (r.engine != nil && r.engine.Busy())
}

// newRouter wires one router. The neighbor caches are filled by
// wireNeighbors once every router exists.
func newRouter(id int, net *Network) *Router {
	r := &Router{id: id, net: net}
	vcs := net.cfg.VCs
	r.vcs = make([]vcBuf, int(NumPorts)*vcs)
	for p := Port(0); p < NumPorts; p++ {
		r.in[p] = r.vcs[int(p)*vcs : (int(p)+1)*vcs]
		for v := 0; v < vcs; v++ {
			e := &r.in[p][v]
			e.owner = r
			e.bit = 1 << uint(int(p)*vcs+v)
		}
		r.outOwner[p] = make([]*Packet, vcs)
	}
	if net.cfg.Disco != nil {
		r.engine = disco.NewEngine(net.cfg.Disco.Algorithm)
		if net.fault != nil {
			if spec := net.fault.Spec(); spec.EngineRate > 0 {
				r.engine.SetFaultOracle(net.fault.EngineFault, spec.EngineStuck)
			}
		}
	}
	return r
}

// wireNeighbors resolves the mesh wiring into direct references; called
// by New after all routers are constructed.
func (r *Router) wireNeighbors() {
	for p := East; p < Local; p++ {
		nb := r.net.cfg.neighbor(r.id, p)
		if nb < 0 {
			continue
		}
		d := r.net.Routers[nb]
		r.neigh[p] = d
		r.oppIn[p] = d.in[p.opposite()]
	}
}

// eachVC iterates input VCs in deterministic order.
func (r *Router) eachVC(f func(p Port, v int, e *vcBuf)) {
	for p := Port(0); p < NumPorts; p++ {
		for v := range r.in[p] {
			f(p, v, &r.in[p][v])
		}
	}
}

// downstream returns the router behind output port p, or nil for Local /
// mesh edge.
func (r *Router) downstream(p Port) *Router { return r.neigh[p] }

// downstreamOccupancy sums occupied+reserved slots of the downstream input
// buffers behind port p — the credit_in-derived remote pressure of Fig. 3.
// oppIn[p] is nil (zero iterations) for Local and mesh-edge ports.
func (r *Router) downstreamOccupancy(p Port) int {
	down := r.oppIn[p]
	occ := 0
	for i := range down {
		occ += down[i].occupancy()
	}
	return occ
}

// localContention sums buffered flits of OTHER VCs heading for output port
// p — the credit_out-derived local pressure of Fig. 3. Only live VCs can
// hold buffered flits, so the scan walks the live mask.
func (r *Router) localContention(p Port, self *vcBuf) int {
	occ := 0
	for m := r.live; m != 0; m &= m - 1 {
		e := &r.vcs[bits.TrailingZeros64(m)]
		if e != self && e.pkt != nil && e.state >= vcVA && e.outPort == p {
			occ += e.stored
		}
	}
	return occ
}

// --- Pipeline stages -------------------------------------------------
//
// Each stage is split into a compute part (reads prior-cycle state,
// writes only router-local state — so its result does not depend on
// router order) and, where the stage has shared effects, a commit part
// the network applies in router-index order. computeAlloc fuses
// VA, RC and the DISCO arbitration compute: within a router they run in
// the classic stage order, and none of them writes state another
// router's compute reads.

// computeAlloc runs the allocation-side computes for one router.
func (r *Router) computeAlloc() {
	r.computeVA()
	r.computeRC()
	r.computeArb()
}

// computeRC computes output ports for newly arrived heads.
func (r *Router) computeRC() {
	for m := r.live; m != 0; m &= m - 1 {
		e := &r.vcs[bits.TrailingZeros64(m)]
		if e.state != vcRoute {
			continue
		}
		e.outPort = r.routeFor(e.pkt.Dst)
		e.state = vcVA
		r.trace(tracefmt.KindRoute, e.pkt)
	}
}

// routeFor resolves the output port, applying WestFirst adaptivity (pick
// the least-congested legal minimal direction) when configured.
func (r *Router) routeFor(dst int) Port {
	cfg := &r.net.cfg
	if cfg.Routing != WestFirst {
		return cfg.routePort(r.id, dst)
	}
	cands := cfg.adaptivePorts(r.id, dst)
	switch len(cands) {
	case 0:
		return Local
	case 1:
		return cands[0]
	}
	best := cands[0]
	bestOcc := r.downstreamOccupancy(best)
	for _, p := range cands[1:] {
		if occ := r.downstreamOccupancy(p); occ < bestOcc {
			best, bestOcc = p, occ
		}
	}
	return best
}

// computeVA allocates downstream VCs: one grant per output port per
// cycle, round-robin among requesters, atomic (a downstream VC is
// granted only when completely free). The grant table (outOwner) is
// upstream-local and a downstream VC has exactly one owning upstream, so
// the whole stage is compute-safe: it reads remote pkt/reserved fields no
// other router's compute writes.
func (r *Router) computeVA() {
	reqs := &r.vaReqs
	for p := Port(0); p < NumPorts; p++ {
		reqs[p] = reqs[p][:0]
	}
	for m := r.live; m != 0; m &= m - 1 {
		e := &r.vcs[bits.TrailingZeros64(m)]
		if e.state != vcVA {
			continue
		}
		if e.outPort == Local {
			// Ejection needs no downstream VC.
			e.outVC = -1
			e.state = vcActive
			continue
		}
		reqs[e.outPort] = append(reqs[e.outPort], e)
	}
	for p := Port(0); p < NumPorts; p++ {
		cand := reqs[p]
		if len(cand) == 0 {
			continue
		}
		down := r.oppIn[p]
		if down == nil {
			// Edge port: XY routing never requests it; defensive.
			continue
		}
		// Find a free downstream VC.
		free := -1
		for v := range r.outOwner[p] {
			if r.outOwner[p][v] == nil && down[v].pkt == nil && down[v].reserved == 0 {
				free = v
				break
			}
		}
		if free < 0 {
			for _, e := range cand {
				e.lostArb = true
			}
			continue
		}
		win := cand[r.vaRR[p]%len(cand)]
		r.vaRR[p]++
		win.outVC = free
		win.state = vcActive
		r.outOwner[p][free] = win.pkt
		r.trace(tracefmt.KindVAGrant, win.pkt)
		for _, e := range cand {
			if e != win {
				e.lostArb = true
			}
		}
	}
}

// schedulable reports whether VC e may request the switch this cycle.
func (r *Router) schedulable(e *vcBuf) bool {
	switch e.lock {
	case lockCommitted:
		return false
	case lockPending:
		cfg := r.net.cfg.Disco
		if cfg == nil || !cfg.NonBlocking {
			return false
		}
	}
	return r.schedulableIgnoringLock(e)
}

// schedulableIgnoringLock is schedulable without the engine-lock check:
// it reports whether e could request the switch if the DISCO engine did
// not hold its packet. A locked VC that passes this check is stalled
// SOLELY by the engine — the exposed (non-overlapped) part of the
// transform latency tracked in Lifetime.EngineStall.
func (r *Router) schedulableIgnoringLock(e *vcBuf) bool {
	if e.state != vcActive || e.sent >= e.ready {
		return false
	}
	if r.net.cfg.FlowControl == StoreAndForward && e.arrived < e.pkt.FlitCount {
		return false // the whole packet must be stored before forwarding
	}
	if e.outPort != Local {
		if r.oppIn[e.outPort][e.outVC].occupancy() >= r.net.cfg.BufDepth {
			return false // no credit
		}
	}
	return true
}

// priority implements the scheduling policy of Section 3.3B: control and
// compressed-response packets share the high priority; compressible but
// still-uncompressed packets are demoted when the rule is on.
func (r *Router) priority(p *Packet) int {
	cfg := r.net.cfg.Disco
	if cfg != nil && cfg.LowPriorityRule &&
		p.Compressible && !p.Compressed && !p.CompressionFailed && p.WantCompressedAtDst {
		return 1
	}
	return 2
}

// computeSA arbitrates the crossbar (one flit per input port and per
// output port) against prior-cycle credit state. Winners are staged (in
// output-port order) for commitSA to traverse. Stall bookkeeping lands on
// shared Packet fields — a wormhole packet can sit in two routers, and a
// tracer snapshots the counters when the packet is granted at its head
// router — so it is staged for commitSA too, on every engine. Round-robin
// pointers, wait counters and lostArb flags are router-local and advance
// in place.
func (r *Router) computeSA() {
	var inUsed [NumPorts]bool
	var stalls, engineStalls uint64 // staged for commitSA (see Router)
	wants := &r.saWants
	for p := Port(0); p < NumPorts; p++ {
		wants[p] = wants[p][:0]
	}
	vcs := r.net.cfg.VCs
	for m := r.live; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		e := &r.vcs[idx]
		if e.pkt == nil {
			continue
		}
		if r.schedulable(e) {
			ip := Port(idx / vcs)
			wants[e.outPort] = append(wants[e.outPort], saWant{e, ip, r.priority(e.pkt)})
		} else if e.state >= vcVA && e.stored > 0 {
			// Buffered but unable to move: queueing time DISCO can use.
			e.waitCycles++
			stalls |= e.bit
			if e.lock != lockNone && r.schedulableIgnoringLock(e) {
				// The engine lock is the only blocker: this stall cycle
				// is exposed engine latency, not overlap.
				engineStalls |= e.bit
			}
			if e.state == vcActive && e.sent < e.ready && e.lock == lockNone {
				e.lostArb = true // blocked on credits: a contention loser too
			}
		}
	}
	for p := Port(0); p < NumPorts; p++ {
		cand := wants[p]
		if len(cand) == 0 {
			continue
		}
		// Highest priority first; round-robin among equals; skip used
		// input ports.
		best := -1
		n := len(cand)
		start := r.saRR[p] % n
		for off := 0; off < n; off++ {
			i := (start + off) % n
			if inUsed[cand[i].ip] {
				continue
			}
			if best == -1 || cand[i].prio > cand[best].prio {
				best = i
			}
		}
		if best == -1 {
			for _, w := range cand {
				w.e.lostArb = true
				w.e.waitCycles++
				stalls |= w.e.bit
			}
			continue
		}
		r.saRR[p]++
		for i, w := range cand {
			if i != best {
				w.e.lostArb = true
				w.e.waitCycles++
				stalls |= w.e.bit
			}
		}
		winner := cand[best]
		inUsed[winner.ip] = true
		r.saWinners = append(r.saWinners, winner.e)
	}
	r.saStalls, r.saEngineStalls = stalls, engineStalls
}

// commitSA applies this router's staged switch-allocation effects: the
// stall counters, then the winner traversals (flit moves, credit
// reservations, ejections, fault draws) in output-port order. Called by
// the network serially in router-index order — a winner's credit check
// stays valid because its downstream VC has exactly one upstream owner,
// and that owner is this traversal.
func (r *Router) commitSA() {
	for m := r.saStalls; m != 0; m &= m - 1 {
		r.vcs[bits.TrailingZeros64(m)].pkt.Queueing++
	}
	for m := r.saEngineStalls; m != 0; m &= m - 1 {
		r.vcs[bits.TrailingZeros64(m)].pkt.Life.EngineStall++
	}
	r.saStalls, r.saEngineStalls = 0, 0
	for i, e := range r.saWinners {
		r.traverse(e)
		r.saWinners[i] = nil
	}
	r.saWinners = r.saWinners[:0]
}

// traverse moves one flit of e's packet through the crossbar.
func (r *Router) traverse(e *vcBuf) {
	if e.lock == lockPending {
		// Mis-predicted stall: release the shadow packet (non-blocking
		// compression) and invalidate the engine job.
		r.engine.Release(e.pkt.ID)
		r.engineVC = nil
		e.releaseShadow()
		r.engineReleases++
		r.net.trace(r.id, tracefmt.KindEngineRelease, e.pkt)
	}
	pkt := e.pkt
	e.forwardFlit()
	if e.sent == 1 {
		r.net.trace(r.id, tracefmt.KindSAGrant, pkt)
	}
	r.flitsSwitched++
	if e.outPort == Local {
		r.flitsEjected++
		if e.sent == pkt.FlitCount {
			pkt.Hops++
			r.net.eject(r.id, pkt)
			e.reset()
		}
		return
	}
	d := r.neigh[e.outPort]
	ip := e.outPort.opposite()
	dst := &r.oppIn[e.outPort][e.outVC]
	if f := r.net.fault; f != nil {
		if e.sent == 1 && pkt.Compressed && len(pkt.Comp.Payload) > 0 && f.PayloadFlip() {
			// Bit-flip the compressed payload as its head flit enters the
			// link: every downstream consumer (engine or sink) sees the
			// corrupt encoding.
			pkt.corruptPayloadBit(f.BitIndex(len(pkt.Comp.Payload) * 8))
			r.faultPayloadFlips++
			r.net.trace(r.id, tracefmt.KindPayloadFlip, pkt)
		}
		if f.CreditLoss() {
			// Lose the credit for this flit's slot: the upstream keeps
			// seeing the slot occupied until link-level recovery returns
			// it (scheduleCreditRestore).
			dst.dropCredit()
			r.faultCreditDrops++
			r.net.trace(r.id, tracefmt.KindCreditDrop, pkt)
			r.net.scheduleCreditRestore(dst)
		}
	}
	dst.reserveSlot()
	r.net.pending = append(r.net.pending, arrival{
		router: d, port: ip, vc: e.outVC, pkt: pkt,
		head: e.sent == 1, tail: e.sent == pkt.FlitCount,
	})
	r.net.stats.FlitHops++
	r.net.stats.FlitHopsByClass[pkt.Class]++
	r.linkFlits[e.outPort]++
	if e.sent == pkt.FlitCount {
		pkt.Hops++
		r.outOwner[e.outPort][e.outVC] = nil
		e.reset()
	}
}

// --- DISCO stages ------------------------------------------------------

// computeEngine advances the router's DISCO engine: commits pending
// jobs, absorbs newly arrived fragments, applies finished transforms.
// Everything it touches is exclusive to this router — its engine, its
// VCs, and the engine job's packet (at most one engine holds a packet at
// a time) — so the whole stage is compute-safe. The shared fault oracle
// is NOT consulted here: engine faults are drawn at job start
// (commitArb), and Engine.Tick is oracle-free by construction.
func (r *Router) computeEngine() {
	if r.engine == nil {
		return
	}
	e := r.engineVC
	if e != nil && e.pkt != nil && r.engine.Busy() {
		// Engine service time attributed to the packet (overlap
		// accounting; the exposed subset is counted in stageSA).
		e.pkt.Life.EngineCycles++
	}
	done := r.engine.Tick(r.net.Cycle)
	if done != nil {
		r.engineVC = nil
		if e != nil && (e.pkt == nil || e.pkt.ID != done.PacketID) {
			e = nil // packet left via non-blocking release already
		}
		if done.Faulted {
			// Injected transient engine fault: the job held the engine
			// busy for its stuck window and then aborted. The shadow
			// packet is intact (same non-blocking mechanism as a
			// mis-predicted release) — and may already have escaped
			// through it — so recovery is simply dropping the job: the
			// packet continues in its pre-engine form. The fault is
			// counted either way; it wedged the engine regardless of
			// where the packet went. No CompressionFailed latch: the
			// fault is transient, not a property of the content.
			var pkt *Packet
			if e != nil {
				pkt = e.pkt
			}
			r.trace(tracefmt.KindEngineFault, pkt)
			r.noteEngineFault()
			if e != nil {
				e.abortJob()
			}
			return
		}
		if e == nil {
			return
		}
		switch {
		case done.State == disco.JobDone && done.Kind == disco.JobCompress:
			r.breakerConsec = 0
			res := done.Result()
			if newFlits := flitsFor(res.SizeBytes()); newFlits >= e.pkt.FlitCount ||
				newFlits > r.net.cfg.BufDepth {
				// No flit win, or the result would not fit the VC: treat
				// as incompressible.
				e.pkt.CompressionFailed = true
				e.abortJob()
				r.trace(tracefmt.KindEngineDone, e.pkt)
				return
			}
			e.pkt.ownCompression(res)
			e.pkt.Conversions++
			e.restockCompressed(e.pkt.FlitCount)
			r.trace(tracefmt.KindEngineDone, e.pkt)
		case done.State == disco.JobDone && done.Kind == disco.JobDecompress:
			r.breakerConsec = 0
			if r.net.fault != nil && !bytes.Equal(done.Block(), e.pkt.Block) {
				// The decode "succeeded" but produced the wrong bytes — an
				// injected bit-flip that stayed inside the code space.
				// Recover from the retained original.
				r.recoverCorrupt(e)
				return
			}
			// Otherwise the decode equals the retained block
			// (TestInNetworkDecodeMatchesRetainedBlock), which the
			// packet carries on; the decode stays in the job.
			e.pkt.ApplyDecompression()
			e.pkt.Conversions++
			e.restockDecompressed(e.pkt.FlitCount)
			r.trace(tracefmt.KindEngineDone, e.pkt)
		case done.Kind == disco.JobDecompress && r.net.fault != nil:
			// Decode error (compress.ErrCorrupt) under fault injection: an
			// in-flight bit-flip was detected. Deliver the retained
			// uncompressed original instead of the corrupt encoding.
			r.recoverCorrupt(e)
		default: // aborted (incompressible content)
			e.pkt.CompressionFailed = true
			e.abortJob()
			r.trace(tracefmt.KindEngineFail, e.pkt)
		}
		return
	}
	if e == nil {
		return
	}
	job := r.engine.Current()
	if job == nil {
		return
	}
	// Commit transition: the shadow is dropped, absorbed payload slots are
	// freed (Section 3.2 step 3 / 3.3A separate compression).
	if job.State == disco.JobCommitted && e.lock == lockPending {
		e.commitJob(job.Kind == disco.JobCompress)
		r.trace(tracefmt.KindEngineCommit, e.pkt)
	}
	// Feed fragments that arrived since the last service.
	if job.Kind == disco.JobCompress && e.lock == lockCommitted {
		avail := e.arrived - 1 // payload flits here
		if n := avail - e.absorbed; n > 0 {
			r.engine.Absorb(e.pkt.payloadFlitValuesInto(r.flitScratch[:0], e.absorbed, n))
			e.absorbPayload(n)
		}
	}
}

// computeArb runs the DISCO arbitrator (Fig. 3): gather this cycle's
// VA/SA losers, score them with the confidence counter, and stage the
// best candidate. Candidate scoring (SelectCandidateAt, Thresholds,
// Confidence) is pure and the occupancy reads see only prior-cycle
// state, so the whole selection is compute-safe; the engine start is
// deferred to commitArb because it draws from the shared fault oracle.
// Every VC scan walks the live mask: lostArb and stored>0 both imply a
// resident packet, so idle VCs have nothing to contribute.
func (r *Router) computeArb() {
	cfg := r.net.cfg.Disco
	if cfg == nil {
		return
	}
	if r.breakerOpen {
		if r.net.Cycle < r.breakerOpenUntil {
			// Circuit breaker open: this router's engine is bypassed
			// (selective-compression fallback). Consume this cycle's
			// lostArb flags so they do not go stale.
			for m := r.live; m != 0; m &= m - 1 {
				r.vcs[bits.TrailingZeros64(m)].lostArb = false
			}
			return
		}
		r.breakerOpen = false
		r.breakerConsec = 0
		r.trace(tracefmt.KindBreakerArm, nil)
	}
	engineFree := !r.engine.Busy()
	r.arbVCs = r.arbVCs[:0]
	r.arbCand = r.arbCand[:0]
	for m := r.live; m != 0; m &= m - 1 {
		e := &r.vcs[bits.TrailingZeros64(m)]
		lost := e.lostArb
		e.lostArb = false
		if !engineFree || !lost || e.pkt == nil || e.sent > 0 || e.lock != lockNone || e.state < vcVA {
			continue
		}
		pkt := e.pkt
		if !pkt.Compressible || pkt.CompressionFailed {
			continue
		}
		if cfg.ResponseOnly && pkt.Class != ClassResponse {
			continue
		}
		fullyArrived := e.arrived == pkt.FlitCount
		var decompress bool
		switch {
		case pkt.Compressed && !pkt.WantCompressedAtDst && fullyArrived:
			decompress = true
		case !pkt.Compressed && (pkt.WantCompressedAtDst || cfg.CompressCoreBound):
			if !cfg.SeparateFlit && !fullyArrived {
				continue
			}
			if e.arrived < 2 {
				continue // need at least one payload flit to absorb
			}
		default:
			continue
		}
		r.arbVCs = append(r.arbVCs, e)
		r.arbCand = append(r.arbCand, disco.Candidate{
			RemoteOccupancy: r.downstreamOccupancy(e.outPort),
			LocalOccupancy:  r.localContention(e.outPort, e),
			HopsRemaining:   r.net.cfg.Hops(r.id, pkt.Dst),
			Decompress:      decompress,
		})
	}
	if cfg.Adaptive {
		occ := 0
		for m := r.live; m != 0; m &= m - 1 {
			occ += r.vcs[bits.TrailingZeros64(m)].stored
		}
		capacity := float64(int(NumPorts) * r.net.cfg.VCs * r.net.cfg.BufDepth)
		r.congestionEWMA = 0.95*r.congestionEWMA + 0.05*float64(occ)/capacity
	}
	if len(r.arbVCs) == 0 {
		return
	}
	ccth, cdth := cfg.Thresholds(r.congestionEWMA)
	pick := cfg.SelectCandidateAt(r.arbCand, ccth, cdth)
	if pick < 0 {
		return
	}
	r.arbPick = r.arbVCs[pick]
	r.arbPickCand = r.arbCand[pick]
}

// commitArb starts the engine on the candidate computeArb staged. This
// is the commit half of the arbitration stage: StartCompress /
// StartDecompress draw from the shared fault-injection PRNG, so job
// starts must happen serially in canonical router order.
func (r *Router) commitArb() {
	sel := r.arbPick
	if sel == nil {
		return
	}
	r.arbPick = nil
	pkt := sel.pkt
	if r.arbPickCand.Decompress {
		r.engine.StartDecompress(pkt.ID, pkt.Comp, r.net.Cycle)
		sel.beginShadowJob(0)
	} else {
		resident := sel.arrived - 1
		job := r.engine.StartCompress(pkt.ID, pkt.payloadFlitValuesInto(r.flitScratch[:0], 0, resident),
			compress.BlockSize/compress.FlitBytes, r.net.Cycle)
		job.SetBlock(pkt.Block)
		sel.beginShadowJob(resident)
	}
	r.engineVC = sel
	r.engineStarts++
	r.net.trace(r.id, tracefmt.KindEngineStart, pkt)
}

// noteEngineFault accounts one injected engine fault and advances the
// circuit breaker: after BreakerK consecutive faults the router stops
// feeding its engine until the cooldown elapses (graceful degradation
// to plain forwarding, mirroring the paper's selective-compression
// bypass of Section 3.3C).
func (r *Router) noteEngineFault() {
	r.faultEngineFaults++
	r.breakerConsec++
	spec := r.net.fault.Spec()
	if !r.breakerOpen && r.breakerConsec >= spec.BreakerK {
		r.breakerOpen = true
		r.breakerOpenUntil = r.net.Cycle + spec.BreakerCooldown
		r.breakerTrips++
		r.trace(tracefmt.KindBreakerTrip, nil)
	}
}

// recoverCorrupt handles a decompression whose input was hit by an
// injected bit-flip (decode error, or a decode that silently produced
// the wrong bytes): the packet's retained uncompressed original — the
// same shadow content the non-blocking release path relies on — is
// delivered instead, so corruption is never propagated.
func (r *Router) recoverCorrupt(e *vcBuf) {
	r.faultRecoveries++
	e.pkt.ApplyDecompression()
	e.pkt.Conversions++
	e.restockDecompressed(e.pkt.FlitCount)
	r.trace(tracefmt.KindFaultRecover, e.pkt)
}

// Engine exposes the router's DISCO engine for diagnostics (nil when
// DISCO is disabled).
func (r *Router) Engine() *disco.Engine { return r.engine }
