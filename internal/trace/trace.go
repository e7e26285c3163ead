// Package trace generates the synthetic PARSEC-2.1-like workloads that
// drive the full-system simulator. The real PARSEC traces are not
// redistributable, and the DISCO figures only depend on per-benchmark
// aggregate behaviour: miss rates (footprint + locality), traffic volume
// (memory intensity, read/write mix, sharing) and value compressibility
// (pattern mix). Each Profile controls those knobs explicitly and
// deterministically, which is the substitution DESIGN.md §3 documents.
//
// Block contents are a pure function of (profile, block address), so a
// block reads back with the same compressibility wherever it flows —
// exactly the property the cache/NoC compressors exploit.
package trace

import (
	"fmt"
	"math/rand"

	"github.com/disco-sim/disco/internal/compress"
)

// PatternMix weighs the value-pattern classes a benchmark's cache blocks
// draw from. Weights need not sum to 1; they are normalized.
type PatternMix struct {
	// Zero: all-zero blocks (BSS, freshly calloc'd buffers).
	Zero float64
	// Repeat: one 8-byte value repeated (memset-style fills).
	Repeat float64
	// Narrow: 32-bit integers with small magnitudes (counters, indices).
	Narrow float64
	// Pointer: 64-bit values sharing a heap base (pointer-rich nodes).
	Pointer float64
	// Float: doubles with clustered exponents and noisy mantissas.
	Float float64
	// Text: small-alphabet byte data (strings, genomes, ASCII).
	Text float64
	// Random: incompressible data (hashes, compressed media).
	Random float64
}

// Profile describes one synthetic benchmark.
type Profile struct {
	// Name is the PARSEC benchmark this profile stands in for.
	Name string
	// FootprintBlocks is each core's private working set in 64 B blocks.
	FootprintBlocks int
	// SharedBlocks is the size of the globally shared region.
	SharedBlocks int
	// SharedFraction is the probability an access targets the shared
	// region (drives coherence traffic).
	SharedFraction float64
	// ReadFraction is the probability a private-region access is a load.
	ReadFraction float64
	// SharedWriteFraction is the probability a shared-region access is a
	// store. Shared data in PARSEC-class workloads is overwhelmingly
	// read-mostly; writes ping-pong lines between cores, so this knob is
	// kept small and separate.
	SharedWriteFraction float64
	// MeanGap is the mean number of non-memory cycles between successive
	// memory accesses of one core (memory intensity knob).
	MeanGap float64
	// ZipfS is the Zipf skew of block reuse (>1; higher = more locality).
	ZipfS float64
	// Mix is the value-pattern mix of the benchmark's data.
	Mix PatternMix
	// Seed decorrelates profiles that otherwise share parameters.
	Seed int64
}

// Validate reports profile errors.
func (p *Profile) Validate() error {
	if p.FootprintBlocks < 2 || p.SharedBlocks < 2 {
		return fmt.Errorf("trace: profile %q footprints too small", p.Name)
	}
	if p.SharedFraction < 0 || p.SharedFraction > 1 || p.ReadFraction < 0 || p.ReadFraction > 1 ||
		p.SharedWriteFraction < 0 || p.SharedWriteFraction > 1 {
		return fmt.Errorf("trace: profile %q fractions out of range", p.Name)
	}
	if p.ZipfS <= 1 {
		return fmt.Errorf("trace: profile %q ZipfS must exceed 1", p.Name)
	}
	if p.MeanGap < 0 {
		return fmt.Errorf("trace: profile %q negative gap", p.Name)
	}
	return nil
}

// Address-space layout (block addresses): each core owns a private slab;
// one region is shared by all cores.
const (
	privateRegionBits = 24
	sharedRegionBase  = uint64(1) << 40
)

// PrivateBase returns the base block address of core's private region.
func PrivateBase(core int) uint64 { return uint64(core+1) << privateRegionBits }

// IsShared reports whether a block address is in the shared region.
func IsShared(addr uint64) bool { return addr >= sharedRegionBase }

// splitmix64 is a deterministic hash for content derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Content deterministically materializes the 64-byte content of a block
// with a one-shot ContentGen: the bytes of record that tests compare
// against. The pattern class is chosen by hashing the address against
// the profile's mix, so a benchmark's blocks are a stable population.
// Callers that materialize many blocks keep their own ContentGen.
func (p *Profile) Content(addr uint64) []byte {
	var g ContentGen
	return g.Append(p, nil, addr)
}

// blockZero seeds Append's 64 block bytes in one append.
var blockZero [compress.BlockSize]byte

// ContentGen materializes block contents with one reusable pseudorandom
// generator, reseeded per block. Its source yields exactly the stream of
// math/rand's standard source but seeds in O(1), computing a lag entry
// only when one of the block's few draws touches it (see lazySource), so
// a reused ContentGen produces exactly Content's bytes without allocating
// or fully seeding a source per block. The zero value is ready to use; a
// ContentGen must not be copied after first use or shared between
// goroutines.
type ContentGen struct {
	src lazySource
	rng *rand.Rand // wraps &src, built on first use
}

// Append appends the 64 bytes of profile p's block at addr to dst and
// returns the extended slice. Hot paths pass a reused scratch buffer
// (dst[:0]) to materialize blocks without a per-call allocation.
func (g *ContentGen) Append(p *Profile, dst []byte, addr uint64) []byte {
	h := splitmix64(addr ^ uint64(p.Seed)*0x9E3779B97F4A7C15)
	total := p.Mix.Zero + p.Mix.Repeat + p.Mix.Narrow + p.Mix.Pointer +
		p.Mix.Float + p.Mix.Text + p.Mix.Random
	if total <= 0 {
		total = 1
	}
	pick := float64(h%1000000) / 1000000 * total
	if g.rng == nil {
		g.rng = rand.New(&g.src)
	}
	rng := g.rng
	rng.Seed(int64(splitmix64(h))) // also resets Read's buffered bytes
	dst = append(dst, blockZero[:]...)
	b := dst[len(dst)-compress.BlockSize:]
	switch {
	case pick < p.Mix.Zero:
		// all zeros
	case pick < p.Mix.Zero+p.Mix.Repeat:
		// memset-style fill with one of the program's few fill patterns.
		v := p.pool("repeat", rng.Intn(16))
		for i := 0; i < 64; i += 8 {
			putU64(b[i:], v)
		}
	case pick < p.Mix.Zero+p.Mix.Repeat+p.Mix.Narrow:
		// Small integers drawn from the program's live value population
		// (counters, sizes, enum codes recur across blocks).
		for i := 0; i < 64; i += 4 {
			v := int32(p.pool("narrow", rng.Intn(256))%4096) - 2048
			putU32(b[i:], uint32(v))
		}
	case pick < p.Mix.Zero+p.Mix.Repeat+p.Mix.Narrow+p.Mix.Pointer:
		// Pointers into a handful of allocation arenas: one arena base per
		// block, small aligned offsets.
		base := p.pool("ptrbase", rng.Intn(32)) & 0x0000_7FFF_FFFF_0000
		for i := 0; i < 64; i += 8 {
			putU64(b[i:], base+uint64(rng.Intn(4096))*16)
		}
	case pick < p.Mix.Zero+p.Mix.Repeat+p.Mix.Narrow+p.Mix.Pointer+p.Mix.Float:
		// Doubles over a small set of exponents with mantissas recurring
		// from the program's computed-constant population — the value
		// locality statistical compressors (SC²) exploit.
		exp := (0x3FF0 + p.pool("exp", rng.Intn(16))%16) << 48
		for i := 0; i < 64; i += 8 {
			mant := p.pool("mant", rng.Intn(512)) & 0xFFFF_FFFF
			putU64(b[i:], exp|mant)
		}
	case pick < total-p.Mix.Random:
		// Text: 4-byte chunks drawn from the document's recurring n-gram
		// population — pattern compressors get little traction here while
		// statistical (SC²-style) compression shines, as in real text.
		const alphabet = "etaoin shrdlucm"
		for i := 0; i < 64; i += 4 {
			gram := p.pool("text", rng.Intn(384))
			for j := 0; j < 4; j++ {
				b[i+j] = alphabet[int(byte(gram>>uint(8*j)))%len(alphabet)]
			}
		}
	default:
		_, _ = rng.Read(b) // documented to never fail
	}
	return dst
}

// pool returns element k of the profile's deterministic value pool for a
// pattern class. Pools model cross-block value reuse: a program's live
// values (fill patterns, counters, heap bases, computed constants) recur
// in many blocks.
func (p *Profile) pool(class string, k int) uint64 {
	h := uint64(p.Seed)
	for _, c := range class {
		h = h*131 + uint64(c)
	}
	return splitmix64(h*0x9E3779B97F4A7C15 + uint64(k))
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> uint(8*i))
	}
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> uint(8*i))
	}
}

// Access is one memory reference of a core.
type Access struct {
	// Addr is the block address.
	Addr uint64
	// Write marks stores.
	Write bool
	// Gap is the number of non-memory cycles preceding this access.
	Gap int
}

// Generator produces one core's deterministic access stream.
type Generator struct {
	prof       *Profile
	core       int
	err        error // latched construction error; Next returns zeros
	rng        *rand.Rand
	zipfPriv   *rand.Zipf
	zipfShared *rand.Zipf
}

// NewGenerator builds core's stream for the profile. The same
// (profile, core, seed) always yields the same stream.
//
// An invalid profile does not panic: the error is latched, Next returns
// zero accesses, and Err reports the problem — callers that validated
// the profile up front (the cmp harness does) never see it, and callers
// that didn't get a diagnosable stream instead of a crash.
func NewGenerator(p *Profile, core int, seed int64) *Generator {
	if err := p.Validate(); err != nil {
		return &Generator{prof: p, core: core, err: err}
	}
	rng := rand.New(rand.NewSource(seed ^ int64(splitmix64(uint64(core)+uint64(p.Seed)<<20))))
	return &Generator{
		prof:       p,
		core:       core,
		rng:        rng,
		zipfPriv:   rand.NewZipf(rng, p.ZipfS, 2, uint64(p.FootprintBlocks-1)),
		zipfShared: rand.NewZipf(rng, p.ZipfS, 2, uint64(p.SharedBlocks-1)),
	}
}

// Err returns the latched construction error, or nil for a usable
// generator.
func (g *Generator) Err() error { return g.err }

// Next returns the next access.
func (g *Generator) Next() Access {
	if g.err != nil {
		return Access{}
	}
	var addr uint64
	var write bool
	if g.rng.Float64() < g.prof.SharedFraction {
		addr = sharedRegionBase + g.zipfShared.Uint64()
		write = g.rng.Float64() < g.prof.SharedWriteFraction
	} else {
		addr = PrivateBase(g.core) + g.zipfPriv.Uint64()
		write = g.rng.Float64() >= g.prof.ReadFraction
	}
	gap := 0
	if g.prof.MeanGap > 0 {
		gap = int(g.rng.ExpFloat64() * g.prof.MeanGap)
		if gap > 1000 {
			gap = 1000
		}
	}
	return Access{Addr: addr, Write: write, Gap: gap}
}
