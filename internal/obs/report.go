package obs

import (
	"fmt"
	"strings"

	"github.com/disco-sim/disco/internal/metrics"
)

// Report is an immutable sample of a PhaseProfiler: per-phase
// nanoseconds plus the step count and elapsed wall clock, taken at one
// instant so the derived views (String, metrics) agree with each other.
type Report struct {
	Steps     uint64
	ElapsedNS int64
	// PhaseNS[phase] is accumulated nanoseconds.
	PhaseNS [NumPhases]int64
}

// Report samples the profiler.
func (p *PhaseProfiler) Report() Report {
	r := Report{Steps: p.steps.Load(), ElapsedNS: p.Elapsed()}
	for ph := range p.ns {
		r.PhaseNS[ph] = p.ns[ph].Load()
	}
	return r
}

// TotalNS sums every phase (total attributed time).
func (r Report) TotalNS() int64 {
	var sum int64
	for _, ns := range r.PhaseNS {
		sum += ns
	}
	return sum
}

// CyclesPerSec is the headline throughput: simulated cycles per
// wall-clock second.
func (r Report) CyclesPerSec() float64 {
	if r.ElapsedNS <= 0 {
		return 0
	}
	return float64(r.Steps) / (float64(r.ElapsedNS) / 1e9)
}

// String renders the human report: headline line, then one row per
// phase with total milliseconds and share of attributed time.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d cycles in %.3fs (%.0f cycles/sec)\n",
		r.Steps, float64(r.ElapsedNS)/1e9, r.CyclesPerSec())
	total := r.TotalNS()
	for _, ph := range Phases() {
		ns := r.PhaseNS[ph]
		share := 0.0
		if total > 0 {
			share = 100 * float64(ns) / float64(total)
		}
		fmt.Fprintf(&b, "  %-8s %10.3fms %6.2f%%\n", ph, float64(ns)/1e6, share)
	}
	return b.String()
}

// AttachMetrics registers the profiler's live state on a metrics
// registry under an "obs" scope. The registry MUST be a dedicated
// observability registry, never the simulation's artifact registry:
// wall-clock values are nondeterministic by nature and would break the
// byte-identity of -metrics exports. The /metrics endpoint serves both
// registries side by side.
func (p *PhaseProfiler) AttachMetrics(reg *metrics.Registry) {
	s := reg.Scope("obs", "profile")
	s.CounterFunc("steps", p.Steps)
	s.GaugeFunc("elapsed_seconds", func() float64 { return float64(p.Elapsed()) / 1e9 })
	s.GaugeFunc("cycles_per_sec", func() float64 { return p.Report().CyclesPerSec() })
	for _, ph := range Phases() {
		ph := ph
		s.Scope("phase", ph.String()).GaugeFunc("seconds", func() float64 {
			return float64(p.TotalNS(ph)) / 1e9
		})
	}
}
