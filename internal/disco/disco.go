// Package disco implements the paper's contribution: the DISCO arbitrator
// (packet filter + confidence counter, Section 3.2 step 2, Eq. 1 and 2),
// the per-router de/compression engine with shadow-packet semantics
// (step 3), and the incremental "separate compression" machinery needed
// under wormhole flow control (Section 3.3A).
//
// The package is transport-agnostic: it never imports the NoC simulator.
// The router (internal/noc) feeds it credit-derived pressure observations
// and drives the engine clock; this mirrors the hardware split between the
// DISCO arbitrator and the router's RC/VA/SA units in Fig. 2/3.
package disco

import (
	"fmt"

	"github.com/disco-sim/disco/internal/compress"
)

// Config collects the DISCO policy parameters. The empirical coefficients
// and thresholds correspond to γ, α, β, CCth and CDth of Eq. 1/2; the
// booleans gate the mechanisms Sections 3.2–3.3 introduce so each can be
// ablated independently.
type Config struct {
	// Algorithm is the block compressor used by every router engine.
	Algorithm compress.Algorithm

	// Gamma weights local pressure for compression candidates (Eq. 1).
	Gamma float64
	// Alpha weights local pressure for decompression candidates (Eq. 2).
	Alpha float64
	// Beta penalizes remaining hop distance for decompression candidates
	// (Eq. 2), discouraging early decompression.
	Beta float64
	// CCth is the compression confidence threshold of Eq. 1.
	CCth float64
	// CDth is the decompression confidence threshold of Eq. 2.
	CDth float64

	// NonBlocking enables shadow-packet release: a packet whose port frees
	// up mid-job is sent immediately and the engine job is invalidated
	// (Section 3.2 step 3).
	NonBlocking bool
	// SeparateFlit enables incremental compression of packet fragments
	// under wormhole flow control (Section 3.3A). Without it a packet can
	// only be compressed when it fits entirely in one input VC.
	SeparateFlit bool
	// LowPriorityRule gives compressible-but-uncompressed packets lower
	// switch-allocation priority (Section 3.3B).
	LowPriorityRule bool
	// ResponseOnly restricts compression to data/response packets
	// (Section 3.3C); request/coherence packets are never touched.
	ResponseOnly bool

	// Adaptive enables congestion-aware threshold scaling. The paper
	// observes that the best CCth/CDth depend on the NoC congestion
	// condition but fixes them "for simplicity", leaving the on-line
	// version as future work (end of Section 3.2); this implements it:
	// each router tracks a congestion EWMA and shifts both thresholds
	// down under pressure (aggressive overlap) and up when idle (avoid
	// mis-predictions).
	Adaptive bool
	// AdaptiveGain scales the threshold shift per unit of congestion
	// imbalance. 0 disables even when Adaptive is set.
	AdaptiveGain float64
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation (Table 2): non-blocking separate-flit compression with the
// scheduling rule and response-only selection. Thresholds were calibrated
// on the synthetic PARSEC mix (see experiments/calibrate_test.go).
func DefaultConfig(alg compress.Algorithm) Config {
	return Config{
		Algorithm:       alg,
		Gamma:           0.5,
		Alpha:           0.5,
		Beta:            1.0,
		CCth:            1.0,
		CDth:            0.0,
		NonBlocking:     true,
		SeparateFlit:    true,
		LowPriorityRule: true,
		ResponseOnly:    true,
	}
}

// Validate reports configuration errors early.
func (c *Config) Validate() error {
	if c.Algorithm == nil {
		return fmt.Errorf("disco: Config.Algorithm must be set")
	}
	if c.Gamma < 0 || c.Alpha < 0 || c.Beta < 0 {
		return fmt.Errorf("disco: coefficients must be non-negative")
	}
	return nil
}

// Candidate is one idling packet reported by the router after VA/SA
// arbitration (a "loser" in the paper's terms), together with the
// credit-derived pressure observations the confidence counter consumes.
type Candidate struct {
	// RemoteOccupancy is the occupied-slot count of the downstream input
	// buffers at the packet's RC output port (derived from credit_in).
	RemoteOccupancy int
	// LocalOccupancy counts buffered flits in this router's other input
	// VCs that contend for the same output port (derived from credit_out
	// bookkeeping in the local VA).
	LocalOccupancy int
	// HopsRemaining is the packet's remaining hop distance to its
	// destination (RC_Hop in Eq. 2). Only used for decompression.
	HopsRemaining int
	// Decompress distinguishes the two candidate types of Section 3.2.
	Decompress bool
}

// Confidence evaluates Eq. 1 (compression) or Eq. 2 (decompression) for
// the candidate.
func (c *Config) Confidence(cand Candidate) float64 {
	if cand.Decompress {
		return float64(cand.RemoteOccupancy) +
			c.Alpha*float64(cand.LocalOccupancy) -
			c.Beta*float64(cand.HopsRemaining)
	}
	return float64(cand.RemoteOccupancy) + c.Gamma*float64(cand.LocalOccupancy)
}

// Confident reports whether the candidate's confidence clears its
// threshold (CCth or CDth).
func (c *Config) Confident(cand Candidate) bool {
	if cand.Decompress {
		return c.Confidence(cand) > c.CDth
	}
	return c.Confidence(cand) > c.CCth
}

// Thresholds returns the effective (CCth, CDth) pair for a router whose
// congestion EWMA is `congestion` ∈ [0,1] (buffered flits over capacity).
// With Adaptive off this is just the static pair.
func (c *Config) Thresholds(congestion float64) (ccth, cdth float64) {
	if !c.Adaptive || c.AdaptiveGain == 0 {
		return c.CCth, c.CDth
	}
	if congestion < 0 {
		congestion = 0
	} else if congestion > 1 {
		congestion = 1
	}
	adj := c.AdaptiveGain * (0.5 - congestion) * 8
	return c.CCth + adj, c.CDth + adj
}

// SelectCandidate picks the candidate with the highest confidence margin
// above its static threshold, or -1 when none clears it. The router calls
// this with all VA/SA losers of the cycle (the "packet filter" of Fig. 3).
func (c *Config) SelectCandidate(cands []Candidate) int {
	return c.SelectCandidateAt(cands, c.CCth, c.CDth)
}

// SelectCandidateAt is SelectCandidate with explicit (possibly adaptive)
// thresholds.
func (c *Config) SelectCandidateAt(cands []Candidate, ccth, cdth float64) int {
	best, bestMargin := -1, 0.0
	for i, cand := range cands {
		th := ccth
		if cand.Decompress {
			th = cdth
		}
		margin := c.Confidence(cand) - th
		if margin <= 0 {
			continue
		}
		if best == -1 || margin > bestMargin {
			best, bestMargin = i, margin
		}
	}
	return best
}
