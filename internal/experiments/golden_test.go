package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment results")

// TestFig5Golden compares the Quick-opts Figure 5 result against a
// committed golden file, with a tolerance wide enough to absorb benign
// calibration drift but tight enough to catch ordering flips or broken
// mechanisms. Regenerate with: go test ./internal/experiments -run Golden -update
func TestFig5Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	o := Opts{Ops: 1500, Warmup: 800, Seed: 1, Benchmarks: []string{"bodytrack", "canneal"}}
	got, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig5_quick_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no golden file (%v); run with -update to create", err)
	}
	var want LatencyResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	const tol = 0.05 // 5% of normalized latency
	check := func(name string, g, w float64) {
		if math.Abs(g-w) > tol {
			t.Errorf("%s drifted: got %.3f, golden %.3f (tol %.2f)", name, g, w, tol)
		}
	}
	check("gmean.CC", got.GMean.CC, want.GMean.CC)
	check("gmean.CNC", got.GMean.CNC, want.GMean.CNC)
	check("gmean.DISCO", got.GMean.DISCO, want.GMean.DISCO)
	// The ordering must hold regardless of drift.
	if !(got.GMean.DISCO < got.GMean.CC) {
		t.Errorf("ordering violated: DISCO %.3f !< CC %.3f", got.GMean.DISCO, got.GMean.CC)
	}
}

// TestNocSweepGoldenDigest pins every -exp nocsweep curve by the SHA-256
// of its points (%+v). The digests were recorded by calling noc.Sweep on
// the same four configurations before the sweep moved into this package,
// so the experiment reproduces the former standalone sweep bit for bit.
func TestNocSweepGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("28 NoC simulations")
	}
	want := map[string]string{
		"uniform/false": "1fab81b3cd2261e253bf5bf709f68541c0434f9988bd186669a01b1749791e3a",
		"uniform/true":  "5b630d73467d5ed4c3c502a2aad17fdc999f33a93339c0ac4a591aa3acbc6454",
		"hotspot/false": "1cdd1e2406953128c6a010716264a220576c814bb407ff5822f70246147c0698",
		"hotspot/true":  "db5419791e17d38f3b11e5212a932e6dd0651e4a911c80df73b4bd9e81faf4ee",
	}
	r, err := NocSweep(Opts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != len(want) {
		t.Fatalf("%d curves, want %d", len(r.Curves), len(want))
	}
	for _, c := range r.Curves {
		key := fmt.Sprintf("%s/%v", c.Pattern, c.Disco)
		sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c.Points)))
		if got := hex.EncodeToString(sum[:]); got != want[key] {
			t.Errorf("%s: digest %s, want %s\n%+v", key, got, want[key], c.Points)
		}
	}
}
