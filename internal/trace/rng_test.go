package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
)

// lazySourceTestSeeds are the reduction's edge cases plus a few thousand
// hashed seeds.
func lazySourceTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
		zeroSeed, math.MinInt64, math.MaxInt64,
	}
	for i := uint64(0); i < 3000; i++ {
		seeds = append(seeds, int64(splitmix64(i)))
	}
	return seeds
}

// lazySourceDraws passes the 607-entry wrap of the lag register twice.
const lazySourceDraws = 1300

// checkLazySource draws from one reused lazySource, reseeded per seed, and
// from a fresh math/rand standard source, and fails on the first output
// that differs: Uint64, Int63, and interleaved Intn/Read through rand.New.
func checkLazySource(t *testing.T, src *lazySource, seeds []int64) {
	t.Helper()
	for _, seed := range seeds {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < lazySourceDraws; k++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand %#x", seed, k, g, w)
			}
		}
		src.Seed(seed)
		want.Seed(seed)
		for k := 0; k < lazySourceDraws; k++ {
			if g, w := src.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %#x, math/rand %#x", seed, k, g, w)
			}
		}
		cs := &countingSource{lazySource: src}
		got, ref := rand.New(cs), rand.New(rand.NewSource(seed))
		got.Seed(seed)
		var gb, wb [70]byte
		for k := 0; cs.draws < lazySourceDraws; k++ {
			// Powers of two, rejection sampling and the 63-bit path.
			n := [...]int{16, 256, 384, 1_000_000_007, 1 << 40}[k%5]
			if g, w := got.Intn(n), ref.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, n, k, g, w)
			}
			m := 1 + k%len(gb)
			_, _ = got.Read(gb[:m])
			_, _ = ref.Read(wb[:m])
			if !bytes.Equal(gb[:m], wb[:m]) {
				t.Fatalf("seed %d: Read(%d) #%d = %x, math/rand %x", seed, m, k, gb[:m], wb[:m])
			}
		}
	}
}

// TestLazySourceMatchesMathRand pins lazySource to math/rand itself, so
// a mistake in the copied table or the seed reduction fails here, and so
// does a toolchain whose standard source no longer matches the copy.
func TestLazySourceMatchesMathRand(t *testing.T) {
	var src lazySource
	checkLazySource(t, &src, lazySourceTestSeeds())

	// The generation stamp wraps after 2³² seeds. Neither an entry still
	// stamped 0 nor one stamped by the generation the wrap lands on may
	// read as current afterwards.
	t.Run("stamp wrap", func(t *testing.T) {
		var src lazySource
		src.Seed(42)
		for k := 0; k < 10; k++ {
			src.Uint64()
		}
		src.gen = math.MaxUint32
		checkLazySource(t, &src, []int64{7, 42, -9})
	})
}

// countingSource counts the outputs rand.Rand draws from a lazySource.
type countingSource struct {
	*lazySource
	draws int
}

func (c *countingSource) Uint64() uint64 { c.draws++; return c.lazySource.Uint64() }
func (c *countingSource) Int63() int64   { c.draws++; return c.lazySource.Int63() }

// TestContentGenAppendAllocs pins block materialization as allocation-free
// once warm: a reused ContentGen reseeds its source in place, so Append
// into a buffer with spare capacity allocates nothing for any profile.
func TestContentGenAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	var g ContentGen
	profs := Profiles()
	buf := make([]byte, 0, compress.BlockSize)
	buf = g.Append(&profs[0], buf, 1)
	addrs := contentTestAddrs()[:64]
	allocs := testing.AllocsPerRun(20, func() {
		for i := range profs {
			for _, addr := range addrs {
				buf = g.Append(&profs[i], buf[:0], addr)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed ContentGen.Append: %v allocs per %d blocks, want 0", allocs, len(profs)*len(addrs))
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool
