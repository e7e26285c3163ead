package noc

import "github.com/disco-sim/disco/internal/tracefmt"

// Lifetime is a packet's lifecycle record: first-occurrence cycle
// stamps for each pipeline milestone plus the engine-overlap
// accounting that makes the paper's Section 3.2 claim — de/compression
// latency hidden under NoC queuing — directly measurable.
//
// Stamps are stored as cycle+1 so the zero value means "never
// happened" (cycle 0 is a valid simulation cycle); use the accessor
// methods, which decode and report presence.
type Lifetime struct {
	routeStamp uint64
	vaStamp    uint64
	saStamp    uint64
	engStart   uint64
	engCommit  uint64
	engEnd     uint64
	// EngineCycles counts cycles this packet spent with a DISCO engine
	// job in flight (summed over jobs if the packet is processed at
	// more than one router).
	EngineCycles uint64
	// EngineStall counts the subset of stall cycles where the engine
	// lock was the ONLY reason the packet could not move — the exposed
	// (non-overlapped) part of the engine latency. Its complement,
	// EngineCycles - EngineStall, is the hidden part.
	EngineStall uint64
}

// observe records the first occurrence of each traced milestone.
func (l *Lifetime) observe(kind tracefmt.Kind, cycle uint64) {
	stamp := cycle + 1
	switch kind {
	case tracefmt.KindRoute:
		if l.routeStamp == 0 {
			l.routeStamp = stamp
		}
	case tracefmt.KindVAGrant:
		if l.vaStamp == 0 {
			l.vaStamp = stamp
		}
	case tracefmt.KindSAGrant:
		if l.saStamp == 0 {
			l.saStamp = stamp
		}
	case tracefmt.KindEngineStart:
		if l.engStart == 0 {
			l.engStart = stamp
		}
	case tracefmt.KindEngineCommit:
		if l.engCommit == 0 {
			l.engCommit = stamp
		}
	case tracefmt.KindEngineDone, tracefmt.KindEngineFail, tracefmt.KindEngineRelease,
		tracefmt.KindEngineFault, tracefmt.KindFaultRecover:
		if l.engEnd == 0 {
			l.engEnd = stamp
		}
	}
}

// decode converts a stamp back to (cycle, happened).
func decode(stamp uint64) (uint64, bool) {
	if stamp == 0 {
		return 0, false
	}
	return stamp - 1, true
}

// RouteCycle returns the first RC completion cycle.
func (l *Lifetime) RouteCycle() (uint64, bool) { return decode(l.routeStamp) }

// VAGrantCycle returns the first downstream-VC grant cycle.
func (l *Lifetime) VAGrantCycle() (uint64, bool) { return decode(l.vaStamp) }

// SAGrantCycle returns the cycle the first flit crossed a crossbar.
func (l *Lifetime) SAGrantCycle() (uint64, bool) { return decode(l.saStamp) }

// EngineStartCycle returns the first DISCO job start cycle.
func (l *Lifetime) EngineStartCycle() (uint64, bool) { return decode(l.engStart) }

// EngineCommitCycle returns the first job-commit cycle.
func (l *Lifetime) EngineCommitCycle() (uint64, bool) { return decode(l.engCommit) }

// EngineEndCycle returns the first job-end cycle (done, fail or
// release).
func (l *Lifetime) EngineEndCycle() (uint64, bool) { return decode(l.engEnd) }

// Breakdown computes the latency breakdown of an ejected packet (see
// tracefmt.SplitLatency).
func (p *Packet) Breakdown() tracefmt.LatencyBreakdown {
	return tracefmt.SplitLatency(p.EjectCycle-p.InjectCycle, p.Queueing, p.Life.EngineCycles, p.Life.EngineStall)
}
