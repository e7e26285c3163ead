package simrun

import (
	"fmt"
	"strings"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/disco"
)

// Key fingerprints one simulation cell: every configuration field that
// can affect a deterministic run's Results. Two cells with equal keys
// produce identical Results (the simulator is a pure function of its
// configuration), so the runner may serve one from the other's run.
//
// The headline fields are broken out for debuggability; Config carries a
// canonical encoding of everything else (profile shape, cache geometry,
// NoC parameters, the effective DISCO policy), so distinct
// configurations can never alias.
type Key struct {
	Mode      string
	Algorithm string
	Benchmark string
	K         int
	Ops       int
	Warmup    int
	Seed      int64
	// Config is the canonical encoding of the remaining knobs.
	Config string
	// Volatile marks cells that must never be memoized: externally
	// supplied access streams are not captured by the fingerprint.
	Volatile bool
}

// String renders a compact identifier (diagnostics, logs).
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s k=%d ops=%d+%d seed=%d", k.Mode, k.Algorithm, k.Benchmark,
		k.K, k.Ops, k.Warmup, k.Seed)
}

// Canonical renders the full fingerprint — every field that
// distinguishes one deterministic cell from another — as one string.
// It is the persistent store's content address (String omits Config,
// so two cells differing only in, say, VC depth would alias there).
// Volatile is excluded: volatile cells are never cached at any tier.
func (k Key) Canonical() string {
	return fmt.Sprintf("mode=%s|alg=%s|bench=%s|k=%d|ops=%d|warmup=%d|seed=%d|cfg=%s",
		k.Mode, k.Algorithm, k.Benchmark, k.K, k.Ops, k.Warmup, k.Seed, k.Config)
}

// KeyFor fingerprints cfg. The algorithm contributes only its name: all
// instances of one scheme behave identically given the same training
// input, and training is itself a deterministic function of the
// configuration (see cmp.System.trainSC2).
func KeyFor(cfg *cmp.Config) Key {
	alg := "none"
	if cfg.Algorithm != nil {
		alg = cfg.Algorithm.Name()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "prof=%+v", cfg.Profile)
	// "[]" (extra memory controllers) and "pref=0" (prefetch degree)
	// print options the simulator no longer has. They stay as literals
	// because the canonical string is the persistent store's content
	// address: dropping them would orphan every stored result.
	fmt.Fprintf(&b, "|mc=%d,[]|max=%d|mshr=%d|pref=0",
		cfg.MCNode, cfg.MaxCycles, cfg.MSHRs)
	fmt.Fprintf(&b, "|l1=%dx%d|bank=%dx%d|tagf=%d",
		cfg.L1Sets, cfg.L1Ways, cfg.BankSets, cfg.BankWays, cfg.TagFactor)
	fmt.Fprintf(&b, "|noc=%d,%d,%v|lat=%d,%d",
		cfg.VCs, cfg.BufDepth, cfg.FlowControl, cfg.BankLatency, cfg.TagLatency)
	fmt.Fprintf(&b, "|disco=%s", discoFingerprint(cfg))
	return Key{
		Mode:      cfg.Mode.String(),
		Algorithm: alg,
		Benchmark: cfg.Profile.Name,
		K:         cfg.K,
		Ops:       cfg.OpsPerCore,
		Warmup:    cfg.WarmupOps,
		Seed:      cfg.Seed,
		Config:    b.String(),
		Volatile:  cfg.Streams != nil,
	}
}

// discoFingerprint encodes the effective DISCO policy. Only DISCO mode
// consults cfg.Disco; a nil override is expanded to the defaults so a
// caller that spells out disco.DefaultConfig dedupes with one that
// leaves the field nil.
func discoFingerprint(cfg *cmp.Config) string {
	if cfg.Mode != cmp.DISCO {
		return "-"
	}
	dc := cfg.Disco
	if dc == nil {
		d := disco.DefaultConfig(cfg.Algorithm)
		dc = &d
	}
	// "cb=false" prints a removed option (compress core-bound packets),
	// kept as a literal so the store's content addresses do not move.
	return fmt.Sprintf("g=%g,a=%g,b=%g,cc=%g,cd=%g,nb=%t,sf=%t,lp=%t,ro=%t,cb=false,ad=%t,ag=%g",
		dc.Gamma, dc.Alpha, dc.Beta, dc.CCth, dc.CDth,
		dc.NonBlocking, dc.SeparateFlit, dc.LowPriorityRule, dc.ResponseOnly,
		dc.Adaptive, dc.AdaptiveGain)
}
