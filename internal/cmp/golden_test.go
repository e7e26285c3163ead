package cmp

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// TestResultsGoldenDigest is the cmp-level golden gate for the cycle
// engine: the Results JSON of a full-system DISCO run (latencies,
// energy, network counters — everything) must hash to its pinned
// SHA-256, recorded before the NoC's worker pool was removed.
func TestResultsGoldenDigest(t *testing.T) {
	const want = "cfb967fb121199a0cc5a52d40df4d6f7e7ef1fa1a72bc41e6259fa179bcd3616"
	data, err := json.Marshal(run(t, quickCfg(DISCO, "ferret")))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("Results JSON digest %s, want %s", got, want)
	}
}

// TestHealthyRunNoStall pins the watchdog's sampling rule: sampling the
// progress signature only at post-commit boundaries, a healthy run must
// never trip a *StallError — even with a watchdog window tight enough
// that any mis-sampled (frozen-looking) signature would fire it.
func TestHealthyRunNoStall(t *testing.T) {
	cfg := quickCfg(DISCO, "bodytrack")
	cfg.StallWindow = 4096
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := sys.Run()
	var se *StallError
	if errors.As(err, &se) {
		t.Fatalf("healthy run tripped the watchdog: %v", se)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Cycles == 0 {
		t.Error("empty results")
	}
	if !sys.Network().AtCommitBoundary() {
		t.Error("network not at a commit boundary after Run returned")
	}
}
