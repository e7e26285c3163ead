package trace

// math/rand's additive lagged Fibonacci generator, as in its rng.go.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lcgMul is the multiplier of the Lehmer LCG (x ← 48271·x mod 2³¹−1)
	// that rngSource.Seed steps to fill the lag entries.
	lcgMul = 48271
	// lcgSkip is the number of LCG steps Seed discards before entry 0.
	lcgSkip = 20
	// zeroSeed is what Seed uses for a seed ≡ 0 mod 2³¹−1.
	zeroSeed = 89482311
)

// lagPow[i][j] is 48271^(21+3i+j) mod 2³¹−1: the multiplier that takes
// the reduced seed to the LCG step behind word j of lag entry i.
var lagPow = func() (t [rngLen][3]uint64) {
	p := uint64(1)
	for k := 0; k < lcgSkip; k++ {
		p = p * lcgMul % int32max
	}
	for i := range t {
		for j := range t[i] {
			p = p * lcgMul % int32max
			t[i][j] = p
		}
	}
	return t
}()

// lazySource is a rand.Source64 that yields exactly the stream of
// math/rand's standard source (rand.NewSource) for the same seed, but
// seeds in O(1).
//
// rngSource.Seed steps the LCG 1,841 times to fill all 607 lag entries,
// while a materialized block reads only 1–32 outputs. Lag entry i depends
// only on LCG steps 21+3i…23+3i, that is on x₀·48271^k mod 2³¹−1 for the
// reduced seed x₀, so lazySource keeps x₀ and computes an entry from
// lagPow when an output first touches it. An entry is current when its
// stamp equals the source's generation, which Seed bumps.
//
// A lazySource must be seeded before use and must not be copied.
type lazySource struct {
	vec       [rngLen]int64
	stamp     [rngLen]uint32 // vec[i] is current iff stamp[i] == gen
	gen       uint32
	x0        uint64 // the reduced seed, in [1, 2³¹−2]
	tap, feed int
}

// Seed implements rand.Source with rngSource.Seed's reduction.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.gen++
	if s.gen == 0 {
		// After 2³² seeds an old stamp would read as current again.
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// lag returns lag entry i, computing it on first use since the last Seed.
func (s *lazySource) lag(i int) int64 {
	if s.stamp[i] != s.gen {
		p := &lagPow[i]
		u := int64(s.x0*p[0]%int32max)<<40 ^ int64(s.x0*p[1]%int32max)<<20 ^ int64(s.x0*p[2]%int32max)
		s.vec[i] = u ^ rngCooked[i]
		s.stamp[i] = s.gen
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.lag(s.feed) + s.lag(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
