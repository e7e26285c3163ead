// Package obs is the simulator's runtime observability layer: a
// stage-level wall-clock profiler for the two-phase cycle engine, a
// structured stderr reporter, and an HTTP endpoint serving metrics and
// live status.
//
// The package's hard invariant is that it is purely observational:
// nothing here may feed back into simulation state, so artifacts
// (traces, stats, metrics exports) are byte-identical with observability
// on or off — the golden gates in obs_test and internal/noc enforce it.
//
// obs is the repo's one sanctioned wall-clock island. The nodeterminism
// analyzer bans time.Now from every sim-core package but exempts this
// one: profiler samples are atomic adds written by the Step driver and
// only ever READ by observers, so wall-clock values cannot perturb the
// simulated schedule. The phasesafety analyzer closes the loophole from
// the other side: calling into obs from compute-phase router code is a
// finding — sampling belongs to the Step driver, which brackets whole
// stages, never to per-router compute.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one timed region of a Network.Step — the pipeline
// stages of the two-phase engine.
type Phase uint8

// Profiled phases: the three compute stages, their commits, and the
// rest of a Step.
const (
	// PhaseEngine is the DISCO engine-service compute stage.
	PhaseEngine Phase = iota
	// PhaseSA is the switch-allocation compute stage.
	PhaseSA
	// PhaseAlloc is the fused VA+RC+DISCO-arbitration compute stage.
	PhaseAlloc
	// PhaseCommit covers the commit halves (SA commit, arb commit).
	PhaseCommit
	// PhaseBarrier is never observed and is not in Phases(). It is
	// kept, with its slot in the phase space, because the end-to-end
	// benchmark module still names it; the engine has no barrier.
	PhaseBarrier
	// PhaseOther is everything else in a Step: link-arrival prologue,
	// NI injection epilogue, metrics sampling.
	PhaseOther
	// NumPhases bounds the phase space.
	NumPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseEngine:
		return "engine"
	case PhaseSA:
		return "sa"
	case PhaseAlloc:
		return "alloc"
	case PhaseCommit:
		return "commit"
	case PhaseBarrier:
		return "barrier"
	case PhaseOther:
		return "other"
	}
	return "phase(?)"
}

// Phases lists the observed phases in display order.
func Phases() []Phase {
	return []Phase{PhaseEngine, PhaseSA, PhaseAlloc, PhaseCommit, PhaseOther}
}

// Clock returns a monotonic wall-clock stamp in nanoseconds. It is the
// sampling primitive the noc hooks use so that no sim-core package ever
// touches the time package directly.
func Clock() int64 { return int64(time.Since(clockEpoch)) }

// clockEpoch anchors Clock; only durations (differences of stamps) are
// ever used, so the epoch itself is arbitrary.
var clockEpoch = time.Now()

// PhaseProfiler accumulates wall-clock nanoseconds per pipeline phase.
// The Step driver is the only writer; reads — Report, the HTTP status
// probe — may happen from any goroutine at any time, hence the atomics,
// and see exact totals at commit boundaries.
//
// A nil *PhaseProfiler is inert: the noc hooks check for nil before
// taking any stamp, so an unprofiled run pays one predictable branch per
// stage and nothing else.
type PhaseProfiler struct {
	ns    [NumPhases]atomic.Int64
	steps atomic.Uint64
	start int64
}

// NewPhaseProfiler returns a zeroed profiler. The argument is ignored;
// it is kept only because the end-to-end benchmark module still passes
// it.
func NewPhaseProfiler(int) *PhaseProfiler {
	return &PhaseProfiler{start: Clock()}
}

// Observe adds the elapsed time since the start stamp to phase.
func (p *PhaseProfiler) Observe(phase Phase, start int64) {
	p.ns[phase].Add(Clock() - start)
}

// AddStep counts one completed Network.Step.
func (p *PhaseProfiler) AddStep() { p.steps.Add(1) }

// Steps returns the completed-step count.
func (p *PhaseProfiler) Steps() uint64 { return p.steps.Load() }

// Elapsed returns wall-clock nanoseconds since construction.
func (p *PhaseProfiler) Elapsed() int64 { return Clock() - p.start }

// TotalNS returns the accumulated nanoseconds for phase.
func (p *PhaseProfiler) TotalNS(phase Phase) int64 { return p.ns[phase].Load() }
