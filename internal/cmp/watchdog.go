package cmp

import (
	"fmt"

	"github.com/disco-sim/disco/internal/noc"
)

// DefaultStallWindow is the progress watchdog's no-forward-progress
// window (cycles) when Config.StallWindow is 0. A healthy Table 2 run
// retires work every few cycles; 100k idle cycles means a wedge.
const DefaultStallWindow = 100_000

// watchdogPeriod is how often (cycles) the watchdog samples the progress
// signature; coarse enough to stay off the hot path.
const watchdogPeriod = 256

// StallError reports a run that stopped making forward progress (or
// exhausted its cycle budget). Unlike the old bare-string abort it
// carries a structured diagnostic Snapshot of everything in flight, so a
// wedged simulation is debuggable from its error value. Detect with
// errors.As(err, &*StallError).
type StallError struct {
	Mode      Mode
	Benchmark string
	// Cycle is when the watchdog fired; Window is how long the progress
	// signature had been frozen (0 when the cycle budget ran out).
	Cycle  uint64
	Window uint64
	Reason string
	// Snapshot is the network's in-flight state at the stall: per-router
	// VC occupancy and credits, engine/breaker state, NI backlogs.
	Snapshot *noc.Snapshot
}

// Error implements error with a one-line headline; the full picture is in
// Snapshot.String().
func (e *StallError) Error() string {
	return fmt.Sprintf("cmp: %v/%s stalled at cycle %d (%s); %s",
		e.Mode, e.Benchmark, e.Cycle, e.Reason, e.Snapshot.Summary())
}

// progressSignature folds every forward-progress counter into one value:
// core retirement plus network injection, ejection, link traversals and
// crossbar activity. Any real progress changes at least one term.
//
// It must only be sampled at a commit boundary (noc.AtCommitBoundary):
// mid-step, the two-phase engine's counters are partially staged — and
// on the parallel engine written concurrently — so a mid-cycle sample
// could both misread progress and race.
func (s *System) progressSignature() uint64 {
	var sig uint64
	for _, c := range s.cores {
		sig += uint64(c.opsDone)
	}
	ns := s.net.Stats()
	return sig + ns.Injected + ns.Ejected + ns.FlitHops + ns.FlitsSwitched
}

// stallError builds a *StallError with the current diagnostic snapshot
// and dumps the in-flight packets to the tracer (KindStall events).
func (s *System) stallError(window uint64, reason string) *StallError {
	s.net.DumpStall()
	return &StallError{
		Mode:      s.cfg.Mode,
		Benchmark: s.cfg.Profile.Name,
		Cycle:     s.now,
		Window:    window,
		Reason:    reason,
		Snapshot:  s.net.Snapshot(),
	}
}

// Run executes the simulation and returns its results. Instead of a bare
// cycle-budget abort, a progress watchdog samples a progress signature
// every watchdogPeriod cycles: if nothing moved for StallWindow cycles —
// a deadlock, a livelock, or a fault-wedged link — the run returns a
// typed *StallError carrying a structured snapshot. The MaxCycles budget
// remains as the outer bound and reports through the same type.
func (s *System) Run() (Results, error) {
	window := s.cfg.StallWindow
	if window == 0 {
		window = DefaultStallWindow
	}
	lastSig := s.progressSignature()
	lastChange := s.now
	for !s.finished() {
		if s.now >= s.cfg.MaxCycles {
			return Results{}, s.stallError(0, fmt.Sprintf("cycle budget %d exhausted", s.cfg.MaxCycles))
		}
		s.Step()
		if s.probeFn != nil && s.now%s.probeEvery == 0 && s.net.AtCommitBoundary() {
			s.probeFn()
		}
		if s.now%watchdogPeriod != 0 || !s.net.AtCommitBoundary() {
			// Sample only at post-commit boundaries: between Steps all
			// staged effects are applied and the counters are coherent.
			continue
		}
		if sig := s.progressSignature(); sig != lastSig {
			lastSig = sig
			lastChange = s.now
		} else if s.now-lastChange >= window {
			return Results{}, s.stallError(s.now-lastChange,
				fmt.Sprintf("no forward progress for %d cycles", s.now-lastChange))
		}
	}
	return s.results(), nil
}
