package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
)

func TestAllProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 12 {
		t.Fatalf("expected 12 PARSEC profiles, got %d", len(ps))
	}
	seen := map[string]bool{}
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			t.Errorf("profile %s: %v", ps[i].Name, err)
		}
		if seen[ps[i].Name] {
			t.Errorf("duplicate profile %s", ps[i].Name)
		}
		seen[ps[i].Name] = true
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("canneal")
	if !ok || p.Name != "canneal" {
		t.Error("ByName(canneal) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
	if len(Names()) != 12 {
		t.Error("Names length wrong")
	}
}

func TestContentDeterministic(t *testing.T) {
	p, _ := ByName("ferret")
	for addr := uint64(0); addr < 100; addr++ {
		a := p.Content(addr)
		b := p.Content(addr)
		if !bytes.Equal(a, b) {
			t.Fatalf("content of addr %d not deterministic", addr)
		}
		if len(a) != compress.BlockSize {
			t.Fatal("wrong block size")
		}
	}
}

// contentTestAddrs spans the address space the simulator touches:
// scattered low blocks, every core's private slab and the shared region.
func contentTestAddrs() []uint64 {
	var out []uint64
	for i := uint64(0); i < 2000; i++ {
		out = append(out, i*7919, PrivateBase(int(i%16))+i, sharedRegionBase+i*31)
	}
	return out
}

// TestContentGenMatchesContent pins the reusable generator to Content:
// one ContentGen reseeded across thousands of blocks of every profile
// (so every pattern class) produces exactly the bytes a fresh generator
// per block does, and extends dst instead of clobbering it.
func TestContentGenMatchesContent(t *testing.T) {
	var g ContentGen
	var buf []byte
	for _, p := range Profiles() {
		p := p
		for _, addr := range contentTestAddrs() {
			buf = g.Append(&p, buf[:0], addr)
			if want := p.Content(addr); !bytes.Equal(buf, want) {
				t.Fatalf("%s: ContentGen.Append(addr=%d) = %x, want %x", p.Name, addr, buf, want)
			}
		}
	}
	p, _ := ByName("dedup")
	out := g.Append(&p, []byte{9, 8}, 77)
	if len(out) != 2+compress.BlockSize || out[0] != 9 || out[1] != 8 || !bytes.Equal(out[2:], p.Content(77)) {
		t.Fatalf("Append did not extend the prefix: %x", out)
	}
}

// TestContentGolden pins block contents to fixed digests, so a change to
// how blocks are generated (a reseeded generator, a reordered draw) that
// kept Content and ContentGen agreeing with each other would still fail.
func TestContentGolden(t *testing.T) {
	want := map[string]string{
		"blackscholes":  "9a510ee29137d8f8",
		"bodytrack":     "136235859cac0b5b",
		"canneal":       "210916a8f75b9aa5",
		"dedup":         "3b7a47bae0fe8d5c",
		"facesim":       "7f6b94e3ed8155f8",
		"ferret":        "c8ed8d7c853def42",
		"fluidanimate":  "8d01cff172c14b7f",
		"freqmine":      "d5a0de335337216d",
		"streamcluster": "1a6efc98af514d29",
		"swaptions":     "cec9ffa5cfe7c63b",
		"vips":          "9c18b427bfcc6009",
		"x264":          "10836a930ed8eaea",
	}
	var g ContentGen
	var buf []byte
	for _, p := range Profiles() {
		p := p
		h := sha256.New()
		for _, addr := range contentTestAddrs() {
			buf = g.Append(&p, buf[:0], addr)
			h.Write(buf)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil))[:16]; got != want[p.Name] {
			t.Errorf("%s: content digest %s, want %s", p.Name, got, want[p.Name])
		}
	}
}

func TestContentDiffersAcrossProfiles(t *testing.T) {
	a, _ := ByName("canneal")
	b, _ := ByName("dedup")
	same := 0
	for addr := uint64(0); addr < 50; addr++ {
		if bytes.Equal(a.Content(addr), b.Content(addr)) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("profiles produce identical content for %d/50 blocks", same)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := ByName("bodytrack")
	g1 := NewGenerator(&p, 3, 42)
	g2 := NewGenerator(&p, 3, 42)
	for i := 0; i < 200; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("stream diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorCoresDiffer(t *testing.T) {
	p, _ := ByName("bodytrack")
	g1 := NewGenerator(&p, 0, 42)
	g2 := NewGenerator(&p, 1, 42)
	same := 0
	for i := 0; i < 100; i++ {
		if g1.Next().Addr == g2.Next().Addr {
			same++
		}
	}
	if same > 50 {
		t.Error("different cores produce near-identical private streams")
	}
}

func TestGeneratorAddressRegions(t *testing.T) {
	p, _ := ByName("canneal") // 25% shared
	g := NewGenerator(&p, 2, 7)
	shared, private := 0, 0
	for i := 0; i < 5000; i++ {
		a := g.Next()
		if IsShared(a.Addr) {
			shared++
		} else {
			private++
			base := PrivateBase(2)
			if a.Addr < base || a.Addr >= base+uint64(p.FootprintBlocks) {
				t.Fatalf("private access %#x outside region", a.Addr)
			}
		}
	}
	frac := float64(shared) / 5000
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("shared fraction = %.2f, want ≈0.25", frac)
	}
}

func TestGeneratorReadWriteMix(t *testing.T) {
	p, _ := ByName("vips") // 65% reads
	g := NewGenerator(&p, 0, 9)
	writes := 0
	for i := 0; i < 5000; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / 5000
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("write fraction = %.2f, want ≈0.35", frac)
	}
}

func TestGeneratorGapMean(t *testing.T) {
	p, _ := ByName("swaptions") // MeanGap 16
	g := NewGenerator(&p, 0, 5)
	sum := 0
	const N = 10000
	for i := 0; i < N; i++ {
		sum += g.Next().Gap
	}
	mean := float64(sum) / N
	if mean < 10 || mean > 22 {
		t.Errorf("mean gap = %.1f, want ≈16", mean)
	}
}

func TestGeneratorLocality(t *testing.T) {
	// Zipf reuse: the top-32 hottest blocks should absorb a large share
	// of accesses.
	p, _ := ByName("blackscholes")
	g := NewGenerator(&p, 0, 3)
	counts := map[uint64]int{}
	const N = 20000
	for i := 0; i < N; i++ {
		counts[g.Next().Addr]++
	}
	// Find total of top 32.
	top := make([]int, 0, len(counts))
	for _, c := range counts {
		top = append(top, c)
	}
	// partial selection
	sum32 := 0
	for k := 0; k < 32; k++ {
		best := -1
		for i, c := range top {
			if best < 0 || c > top[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		sum32 += top[best]
		top[best] = -1
	}
	if frac := float64(sum32) / N; frac < 0.2 {
		t.Errorf("top-32 blocks absorb only %.2f of accesses; locality too weak", frac)
	}
}

// Compressibility shape: pointer/integer-heavy profiles must compress
// better under delta than media-like ones, and the overall mean should be
// in Table 1's neighbourhood (≈1.3–2.5× for delta/BDI).
func TestProfileCompressibilityShape(t *testing.T) {
	ratio := func(name string) float64 {
		p, _ := ByName(name)
		alg := compress.NewBDI()
		raw, comp := 0, 0
		for addr := uint64(0); addr < 400; addr++ {
			c := alg.AppendCompress(nil, p.Content(PrivateBase(0)+addr))
			raw += compress.BlockSize
			comp += c.SizeBytes()
		}
		return float64(raw) / float64(comp)
	}
	rf, rx := ratio("freqmine"), ratio("x264")
	if rf <= rx {
		t.Errorf("freqmine ratio %.2f should exceed x264 ratio %.2f", rf, rx)
	}
	if rf < 1.3 || rf > 6 {
		t.Errorf("freqmine BDI ratio %.2f outside plausible band", rf)
	}
	if rx < 1.0 || rx > 3 {
		t.Errorf("x264 BDI ratio %.2f outside plausible band", rx)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("vips")
	cases := []func(*Profile){
		func(p *Profile) { p.FootprintBlocks = 1 },
		func(p *Profile) { p.SharedBlocks = 0 },
		func(p *Profile) { p.SharedFraction = 1.5 },
		func(p *Profile) { p.ReadFraction = -0.1 },
		func(p *Profile) { p.ZipfS = 1.0 },
		func(p *Profile) { p.MeanGap = -1 },
	}
	for i, mut := range cases {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewGeneratorLatchesInvalidProfile(t *testing.T) {
	p, _ := ByName("vips")
	p.ZipfS = 0.5
	g := NewGenerator(&p, 0, 1)
	if g.Err() == nil {
		t.Fatal("invalid profile should latch an error")
	}
	// A latched generator stays inert instead of crashing mid-run.
	for i := 0; i < 3; i++ {
		if a := g.Next(); a != (Access{}) {
			t.Fatalf("Next on a latched generator = %+v, want zero", a)
		}
	}
	if good, _ := ByName("vips"); NewGenerator(&good, 0, 1).Err() != nil {
		t.Error("valid profile latched an error")
	}
}
