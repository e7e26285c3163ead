package simrun

import (
	"testing"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/trace"
)

// discoCfg builds a DISCO-mode config with an optional policy mutation.
func discoCfg(t *testing.T, mut func(*disco.Config)) cmp.Config {
	t.Helper()
	prof, ok := trace.ByName("bodytrack")
	if !ok {
		t.Fatal("profile missing")
	}
	alg := compress.NewDelta()
	cfg := cmp.DefaultConfig(cmp.DISCO, alg, prof)
	if mut != nil {
		dc := disco.DefaultConfig(alg)
		mut(&dc)
		cfg.Disco = &dc
	}
	return cfg
}

func TestKeyDistinguishesDiscoConfigs(t *testing.T) {
	base := discoCfg(t, nil)
	baseKey := KeyFor(&base)
	muts := map[string]func(*disco.Config){
		"blocking":      func(c *disco.Config) { c.NonBlocking = false },
		"no-sep-flit":   func(c *disco.Config) { c.SeparateFlit = false },
		"no-low-prio":   func(c *disco.Config) { c.LowPriorityRule = false },
		"all-classes":   func(c *disco.Config) { c.ResponseOnly = false },
		"thresholds":    func(c *disco.Config) { c.CCth, c.CDth = -1e9, -1e9 },
		"beta":          func(c *disco.Config) { c.Beta = 0 },
		"adaptive":      func(c *disco.Config) { c.Adaptive = true; c.AdaptiveGain = 1 },
		"gamma":         func(c *disco.Config) { c.Gamma = 0.25 },
		"cc-threshold":  func(c *disco.Config) { c.CCth = 2 },
		"cd-threshold":  func(c *disco.Config) { c.CDth = 2 },
		"adaptive-gain": func(c *disco.Config) { c.Adaptive = true; c.AdaptiveGain = 0.5 },
	}
	seen := map[Key]string{baseKey: "default"}
	for name, mut := range muts {
		cfg := discoCfg(t, mut)
		k := KeyFor(&cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q aliases %q: %v", name, prev, k)
		}
		seen[k] = name
	}
}

func TestKeyExpandsDefaultDiscoConfig(t *testing.T) {
	// An explicit DefaultConfig must dedupe with a nil (defaulted) one.
	nilCfg := discoCfg(t, nil)
	explicit := discoCfg(t, func(*disco.Config) {})
	if KeyFor(&nilCfg) != KeyFor(&explicit) {
		t.Error("explicit default DISCO config should produce the same key as nil")
	}
}

func TestKeySeparatesModesAndWorkloads(t *testing.T) {
	prof, _ := trace.ByName("bodytrack")
	other, _ := trace.ByName("canneal")
	mk := func(mode cmp.Mode, p trace.Profile, mut func(*cmp.Config)) Key {
		cfg := cmp.DefaultConfig(mode, compress.NewDelta(), p)
		if mut != nil {
			mut(&cfg)
		}
		return KeyFor(&cfg)
	}
	keys := []Key{
		mk(cmp.Ideal, prof, nil),
		mk(cmp.CC, prof, nil),
		mk(cmp.DISCO, prof, nil),
		mk(cmp.DISCO, other, nil),
		mk(cmp.DISCO, prof, func(c *cmp.Config) { c.K = 8 }),
		mk(cmp.DISCO, prof, func(c *cmp.Config) { c.Seed = 2 }),
		mk(cmp.DISCO, prof, func(c *cmp.Config) { c.OpsPerCore = 999 }),
		mk(cmp.DISCO, prof, func(c *cmp.Config) { c.VCs = 4 }),
		mk(cmp.DISCO, prof, func(c *cmp.Config) { c.BufDepth = 16 }),
	}
	seen := map[Key]int{}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Errorf("key %d aliases key %d: %v", i, j, k)
		}
		seen[k] = i
	}
	// And the same config twice must collide (that is the memo hit).
	if mk(cmp.DISCO, prof, nil) != mk(cmp.DISCO, prof, nil) {
		t.Error("identical configs should share a key")
	}
}

func TestKeyMarksStreamsVolatile(t *testing.T) {
	prof, _ := trace.ByName("bodytrack")
	cfg := cmp.DefaultConfig(cmp.DISCO, compress.NewDelta(), prof)
	cfg.Streams = make([]trace.Stream, cfg.K*cfg.K)
	if !KeyFor(&cfg).Volatile {
		t.Error("externally supplied streams must disable memoization")
	}
}
