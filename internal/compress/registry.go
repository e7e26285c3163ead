package compress

import "fmt"

// None is the identity "compressor" used by the no-compression baseline:
// every block is stored raw with zero latency.
type None struct{}

// NewNone returns the identity algorithm.
func NewNone() *None { return &None{} }

// Name implements Algorithm.
func (*None) Name() string { return "none" }

// CompLatency implements Algorithm.
func (*None) CompLatency() int { return 0 }

// DecompLatency implements Algorithm.
func (*None) DecompLatency() int { return 0 }

// AppendCompress implements Algorithm.
func (a *None) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	return appendStored(a.Name(), dst, block)
}

// DecompressInto implements Algorithm.
func (*None) DecompressInto(dst *[BlockSize]byte, c Compressed) error { return storedInto(dst, c) }

// New returns a fresh instance of the named algorithm. SC² is returned
// untrained; callers that measure ratios should Train it on sampled blocks
// first, mirroring the hardware's sampling phase.
func New(name string) (Algorithm, error) {
	switch name {
	case "delta":
		return NewDelta(), nil
	case "bdi":
		return NewBDI(), nil
	case "fpc":
		return NewFPC(), nil
	case "sfpc":
		return NewSFPC(), nil
	case "cpack":
		return NewCPack(), nil
	case "sc2":
		return NewSC2(), nil
	case "fvc":
		return NewFVC(), nil
	case "none":
		return NewNone(), nil
	}
	return nil, fmt.Errorf("compress: unknown algorithm %q", name)
}

// Names lists all registered algorithms (the real compressors first).
func Names() []string {
	return []string{"delta", "bdi", "fpc", "sfpc", "cpack", "sc2", "fvc", "none"}
}

// All returns one fresh instance of every real compressor (excludes
// "none").
func All() []Algorithm {
	return []Algorithm{NewDelta(), NewBDI(), NewFPC(), NewSFPC(), NewCPack(), NewSC2(), NewFVC()}
}
