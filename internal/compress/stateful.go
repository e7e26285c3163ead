package compress

// Stateful adapts a block Algorithm into a streaming codec with
// per-stream persistent state — the building block of internal/stream's
// wire protocol. The paper compresses each 64-byte block separately
// (Section 3.2), which is exactly what makes incremental state cheap:
// a stream position is fully described by (codec instance, previous
// plaintext block), so an encoder/decoder pair stays in sync as long as
// both fold the same plaintext sequence through the same rules.
//
// Per block the encoder considers three encodings and keeps the
// smallest:
//
//	ModeStored   — the raw 64 bytes (the fallback, always available)
//	ModeDirect   — the codec's encoding of the block itself
//	ModeResidual — the codec's encoding of block XOR previousBlock
//
// The residual path is the "persistent delta base": value-similar
// consecutive blocks (counters, pointers into the same heap region,
// tensor rows) XOR to near-zero residuals that the delta-family codecs
// collapse to a few bits. The base is the previous PLAINTEXT block, so
// the decoder reconstructs it for free from its own output; no side
// channel carries state.
//
// Trainable codecs (SC², FVC) are mirrored the same way: both sides
// Observe every plaintext block and Retrain at the same fixed block
// counts, so the value tables on the two ends of a stream are always
// identical when a block is encoded and when it is decoded. Each end
// builds only the lookup table it uses, which it learns from its calls:
// the encode table once it has encoded, the decode table once it has
// decoded.
//
// Encode and Decode allocate nothing: every candidate is encoded into
// per-instance scratch and Decode decodes into per-instance scratch, so
// their results alias that scratch (see Encode and Decode for how long
// each stays valid). A Stateful is one stream direction's state and is
// not safe for concurrent use.
type Stateful struct {
	alg   Algorithm
	tr    trainable       // non-nil when alg adapts online
	uses  tableSet        // the tables this side has needed so far
	base  [BlockSize]byte // previous plaintext block (the delta base)
	resid [BlockSize]byte // XOR-residual scratch
	seen  uint64          // plaintext blocks folded through this side
	// enc holds Encode's candidate payloads, one buffer per BlockMode
	// (stored, direct, residual), so comparing two full encodes needs
	// no copy and the winner is returned in place.
	enc [ModeResidual + 1][BlockSize]byte
	dec [BlockSize]byte // Decode's output block
}

// Trainable is the online-adaptation surface of SC² and FVC: fold a
// block into the statistics, rebuild the table. Stateful drives it at
// deterministic block counts on both stream ends.
type Trainable interface {
	Observe(block []byte)
	Retrain()
}

// tableSet names a trainable codec's lookup tables: the encoder's
// value-to-code table and the decoder's code-to-value table. Retrain
// builds both; a stream end builds the ones its calls need.
type tableSet uint8

const (
	encodeTable tableSet = 1 << iota
	decodeTable
)

// trainable is what Stateful drives in a Trainable codec: a retrain
// that builds only the tables in t, a build of tables from the current
// code (for a side first used after a retrain), and a reset to the
// untrained state that keeps the codec's memory.
type trainable interface {
	Observe(block []byte)
	retrain(t tableSet)
	build(t tableSet)
	reset()
}

// BlockMode selects how one streamed block was encoded.
type BlockMode uint8

const (
	// ModeStored carries the raw 64-byte block.
	ModeStored BlockMode = iota
	// ModeDirect carries the codec's encoding of the block itself.
	ModeDirect
	// ModeResidual carries the codec's encoding of block XOR base.
	ModeResidual
)

// retrainEvery is the fixed cadence (in plaintext blocks) at which a
// Trainable codec rebuilds its table. Both stream directions count the
// same plaintext sequence, so the rebuilds happen at the same points.
const retrainEvery = 256

// StatefulBlock is one encoded streamed block: the mode tag plus the
// codec payload. SizeBits is the hardware-style encoded size
// (ModeStored: exactly 8*BlockSize); the wire layer transmits it so the
// decoder can rebuild the exact Compressed the codec produced. A
// Payload returned by Encode aliases the encoder's scratch and is valid
// until its next Encode.
type StatefulBlock struct {
	Mode     BlockMode
	SizeBits int
	Payload  []byte
}

// NewStateful wraps alg with per-stream persistent state. Each stream
// direction needs its own Stateful (and its own alg instance for
// trainable codecs — the table is part of the stream state).
func NewStateful(alg Algorithm) *Stateful {
	s := &Stateful{alg: alg}
	s.tr, _ = alg.(trainable)
	return s
}

// Blocks reports how many plaintext blocks this side has folded in.
func (s *Stateful) Blocks() uint64 { return s.seen }

// Reset returns s to the state NewStateful gave it, ready for a new
// stream: no delta base, no blocks, no side, and for a trainable codec
// an empty histogram and untrained tables. It keeps the codec's memory
// (histogram, index, value and code tables), so a recycled Stateful
// refills what it has held before instead of growing it again. Both
// ends of a stream must start from this state; resetting mid-stream
// desynchronizes them.
func (s *Stateful) Reset() {
	s.base = [BlockSize]byte{}
	s.seen = 0
	s.uses = 0
	if s.tr != nil {
		s.tr.reset()
	}
}

// need records that this side uses the tables in t. A table first
// needed after a retrain is built then from the current code, so it
// matches the one the peer built at that retrain.
func (s *Stateful) need(t tableSet) {
	if s.uses&t == t {
		return
	}
	s.uses |= t
	if s.tr != nil {
		s.tr.build(t)
	}
}

// advance folds one plaintext block into the shared stream state; the
// exact same call runs on the encode and the decode side.
func (s *Stateful) advance(block []byte) {
	copy(s.base[:], block)
	s.seen++
	if s.tr != nil {
		s.tr.Observe(block)
		if s.seen%retrainEvery == 0 {
			s.tr.retrain(s.uses)
		}
	}
}

// Encode compresses one BlockSize-byte block against the persistent
// stream state and advances it. It panics if len(block) != BlockSize
// (caller bug, mirroring Algorithm.AppendCompress). The returned Payload
// aliases the Stateful's scratch: it is valid until the next Encode,
// and a caller that keeps a frame longer must copy it. block itself is
// not retained.
func (s *Stateful) Encode(block []byte) StatefulBlock {
	checkBlock(block)
	s.need(encodeTable)
	hasBase := s.seen > 0
	if hasBase {
		for i := range s.resid {
			s.resid[i] = block[i] ^ s.base[i]
		}
	}

	out := StatefulBlock{Mode: ModeStored, SizeBits: 8 * BlockSize}
	// Both candidates are fully encoded, each into its own mode's
	// scratch; strictly smaller wins and ties prefer direct (no base
	// coupling).
	if c := s.alg.AppendCompress(s.enc[ModeDirect][:0], block); !c.Stored && c.SizeBits < out.SizeBits {
		out = StatefulBlock{Mode: ModeDirect, SizeBits: c.SizeBits, Payload: c.Payload}
	}
	if hasBase {
		if c := s.alg.AppendCompress(s.enc[ModeResidual][:0], s.resid[:]); !c.Stored && c.SizeBits < out.SizeBits {
			out = StatefulBlock{Mode: ModeResidual, SizeBits: c.SizeBits, Payload: c.Payload}
		}
	}
	if out.Mode == ModeStored {
		stored := &s.enc[ModeStored]
		copy(stored[:], block)
		out.Payload = stored[:]
	}
	s.advance(block)
	return out
}

// Decode reverses Encode and advances the stream state. The returned
// block aliases the Stateful's scratch and is valid until the next
// Decode. A ModeResidual block arriving before any base exists, or a
// payload the codec rejects, returns an error wrapping ErrCorrupt; the
// codec decodes into scratch and the base is replaced only after a
// successful decode, so the stream state is NOT advanced on error (the
// connection is already broken — the caller must tear it down, not
// resynchronize).
func (s *Stateful) Decode(b StatefulBlock) ([]byte, error) {
	s.need(decodeTable)
	out := &s.dec
	switch b.Mode {
	case ModeStored:
		if len(b.Payload) != BlockSize || b.SizeBits != 8*BlockSize {
			return nil, ErrCorrupt
		}
		copy(out[:], b.Payload)
	case ModeDirect, ModeResidual:
		if b.Mode == ModeResidual && s.seen == 0 {
			return nil, ErrCorrupt
		}
		if err := s.alg.DecompressInto(out, Compressed{
			Alg: s.alg.Name(), SizeBits: b.SizeBits, Payload: b.Payload,
		}); err != nil {
			return nil, err
		}
		if b.Mode == ModeResidual {
			for i := range out {
				out[i] ^= s.base[i]
			}
		}
	default:
		return nil, ErrCorrupt
	}
	s.advance(out[:])
	return out[:], nil
}
