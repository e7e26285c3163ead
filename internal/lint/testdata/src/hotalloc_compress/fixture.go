// Package fixture exercises the hotalloc analyzer's codec roots: every
// codec's one encoder and one decoder (AppendCompress, DecompressInto)
// and the streaming adapter's (*Stateful).Encode and Decode are
// per-block hot paths, so heap
// allocations reachable from them are findings unless recycled,
// escaping, or on an init path.
package fixture

// Codec mimics a block compressor.
type Codec struct {
	scratch []byte
}

// NewCodec is an init path: construction may allocate freely.
func NewCodec() *Codec { return &Codec{scratch: make([]byte, 64)} }

// AppendCompress is a root; appending its encoding to the caller's dst
// is the function's product (allowed: escaping result), but per-call
// scratch is not.
func (c *Codec) AppendCompress(dst, block []byte) []byte {
	tmp := make([]uint64, 8) // want "heap allocation on the hot path"
	tmp[0] = uint64(block[0])
	dst = append(dst, byte(tmp[0])) // allowed: bound to the returned value
	return dst
}

// Compress is not a root: a codec's one encoder is AppendCompress, so
// per-call scratch here is out of the analyzer's scope.
func (c *Codec) Compress(block []byte) {
	tmp := make([]byte, len(block))
	copy(tmp, block)
	c.scratch[0] = tmp[0]
}

// DecompressInto is a clean root: decoding through recycled scratch
// into the caller's block allocates nothing.
func (c *Codec) DecompressInto(dst *[64]byte, payload []byte) error {
	c.scratch = c.scratch[:0]
	c.scratch = append(c.scratch, payload...) // allowed: recycled scratch
	copy(dst[:], c.scratch)
	return nil
}

// Stateful mimics the streaming adapter: per-instance scratch that its
// results alias.
type Stateful struct {
	enc [64]byte
	dec [64]byte
}

// Encode is a root: encoding into per-instance scratch is allowed, a
// per-call buffer is not, even when its bytes end up in the result.
func (s *Stateful) Encode(block []byte) []byte {
	tmp := make([]byte, len(block)) // want "heap allocation on the hot path"
	copy(tmp, block)
	n := copy(s.enc[:], tmp)
	return s.enc[:n]
}

// Decode is a root, and so is every function it reaches.
func (s *Stateful) Decode(payload []byte) []byte {
	s.commit(payload)
	return s.dec[:]
}

func (s *Stateful) commit(payload []byte) {
	s.dec = [64]byte{}
	copy(s.dec[:], payload)
	_ = map[int]int{} // want "heap allocation on the hot path"
}

// frame has an Encode too, but only Stateful's are roots.
type frame struct{ buf []byte }

func (f *frame) Encode(n int) { f.buf = make([]byte, n) }
