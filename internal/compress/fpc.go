package compress

// FPC implements Frequent Pattern Compression (Alameldeen & Wood, the
// paper's reference [2]): each 32-bit word is matched against a small set
// of frequent patterns and replaced by a 3-bit prefix plus the pattern's
// residual bits. Runs of zero words collapse into a single prefix with a
// 3-bit run length. Table 1 of the DISCO paper lists FPC at 5-cycle
// decompression, ≈1.5× ratio.
//
// Prefixes (per the original FPC paper):
//
//	000 run of 1–8 zero words       (+3 bits run length)
//	001 4-bit sign-extended         (+4 bits)
//	010 8-bit sign-extended         (+8 bits)
//	011 16-bit sign-extended        (+16 bits)
//	100 16-bit padded with zeros    (+16 bits: the nonzero upper halfword)
//	101 two halfwords, each an 8-bit sign-extended value (+16 bits)
//	110 word of repeated bytes      (+8 bits)
//	111 uncompressed                (+32 bits)
type FPC struct{}

// NewFPC returns an FPC compressor.
func NewFPC() *FPC { return &FPC{} }

// Name implements Algorithm.
func (*FPC) Name() string { return "fpc" }

// CompLatency implements Algorithm (pattern match + pack pipeline).
func (*FPC) CompLatency() int { return 3 }

// DecompLatency implements Algorithm (Table 1: 5 cycles).
func (*FPC) DecompLatency() int { return 5 }

const (
	fpcZeroRun   = 0
	fpcSE4       = 1
	fpcSE8       = 2
	fpcSE16      = 3
	fpcPadded16  = 4
	fpcTwoHalf   = 5
	fpcRepByte   = 6
	fpcUncompact = 7
)

// fpcZeroRunAt returns the zero-word run length starting at word i
// (capped at 8, the prefix's run-length field): the mask's trailing-one
// count from bit i, which self-truncates at word 16 because the shifted-
// in high bits are zero.
func fpcZeroRunAt(zero uint16, i int) int {
	run := trailingOnes16(zero >> uint(i))
	if run > 8 {
		run = 8
	}
	return run
}

// trailingOnes16 counts consecutive set low bits.
func trailingOnes16(m uint16) int {
	n := 0
	for m&1 != 0 {
		n++
		m >>= 1
	}
	return n
}

// AppendCompress implements Algorithm via the word-parallel kernel: one
// classification pass builds the pattern masks, and one emission pass
// reads them to select each word's pattern and fuses its prefix and
// residual into a single MSB-first field (bit-identical to separate
// prefix-then-residual writes, since MSB-first concatenation is
// associative).
func (a *FPC) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	ws := words32(block)
	m := classifyWords32(&ws)
	var acc bitAcc
	for i := 0; i < len(ws); {
		bit := uint16(1) << uint(i)
		if m.zero&bit != 0 {
			run := fpcZeroRunAt(m.zero, i)
			acc.emit(fpcZeroRun<<3|uint64(run-1), 6)
			i += run
			continue
		}
		word := uint64(ws[i])
		switch {
		case m.se4&bit != 0:
			acc.emit(fpcSE4<<4|word&0xF, 7)
		case m.se8&bit != 0:
			acc.emit(fpcSE8<<8|word&0xFF, 11)
		case m.se16&bit != 0:
			acc.emit(fpcSE16<<16|word&0xFFFF, 19)
		case m.pad16&bit != 0:
			acc.emit(fpcPadded16<<16|word>>16, 19)
		case m.twoHalf&bit != 0:
			acc.emit(fpcTwoHalf<<16|(word>>16&0xFF)<<8|word&0xFF, 19)
		case m.repByte&bit != 0:
			acc.emit(fpcRepByte<<8|word&0xFF, 11)
		default:
			acc.emit(fpcUncompact<<32|word, 35)
		}
		i++
	}
	if acc.bits() >= 8*BlockSize {
		return appendStored(a.Name(), dst, block)
	}
	return Compressed{Alg: a.Name(), SizeBits: acc.bits(), Payload: acc.appendTo(dst)}
}

// DecompressInto implements Algorithm. Each word takes one window of
// the payload, its prefix and its data field (≤ 35 bits in all).
func (a *FPC) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	r := bitReader{buf: c.Payload}
	words := 0
	for words < BlockSize/WordSize {
		w := r.peek()
		prefix := w >> 61
		w <<= 3 // the data field, MSB-aligned
		switch prefix {
		case fpcZeroRun:
			n := int(w>>61) + 1
			if !r.consume(6) || words+n > BlockSize/WordSize {
				return ErrCorrupt
			}
			for j := 0; j < n; j++ {
				putWord(out, words+j, 0)
			}
			words += n
			continue
		case fpcSE4, fpcSE8, fpcSE16:
			width := 4
			switch prefix {
			case fpcSE8:
				width = 8
			case fpcSE16:
				width = 16
			}
			if !r.consume(3 + width) {
				return ErrCorrupt
			}
			putWord(out, words, uint32(int64(w)>>uint(64-width)))
		case fpcPadded16:
			if !r.consume(19) {
				return ErrCorrupt
			}
			putWord(out, words, uint32(w>>48)<<16)
		case fpcTwoHalf:
			if !r.consume(19) {
				return ErrCorrupt
			}
			h := uint32(uint16(int64(w) >> 56))
			l := uint32(uint16(int64(w<<8) >> 56))
			putWord(out, words, h<<16|l)
		case fpcRepByte:
			if !r.consume(11) {
				return ErrCorrupt
			}
			b := uint32(w >> 56)
			putWord(out, words, b|b<<8|b<<16|b<<24)
		case fpcUncompact:
			if !r.consume(35) {
				return ErrCorrupt
			}
			putWord(out, words, uint32(w>>32))
		}
		words++
	}
	return nil
}

// SFPC is the simplified FPC variant of Table 1 (4-cycle decompression,
// ≈1.33× ratio): only the zero-word, 8-bit sign-extended, 16-bit
// sign-extended and uncompressed patterns survive, selected by a 2-bit
// prefix. Fewer patterns shorten the decode mux chain (hence the lower
// latency) at the cost of compression ratio.
type SFPC struct{}

// NewSFPC returns a simplified-FPC compressor.
func NewSFPC() *SFPC { return &SFPC{} }

// Name implements Algorithm.
func (*SFPC) Name() string { return "sfpc" }

// CompLatency implements Algorithm.
func (*SFPC) CompLatency() int { return 2 }

// DecompLatency implements Algorithm (Table 1: 4 cycles).
func (*SFPC) DecompLatency() int { return 4 }

const (
	sfpcZero   = 0
	sfpcSE8    = 1
	sfpcSE16   = 2
	sfpcUncomp = 3
)

// AppendCompress implements Algorithm via the word-parallel kernel
// (prefix and residual fused per word, as in FPC).
func (a *SFPC) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	ws := words32(block)
	m := classifyWords32(&ws)
	var acc bitAcc
	for i := 0; i < len(ws); i++ {
		bit := uint16(1) << uint(i)
		word := uint64(ws[i])
		switch {
		case m.zero&bit != 0:
			acc.emit(sfpcZero, 2)
		case m.se8&bit != 0:
			acc.emit(sfpcSE8<<8|word&0xFF, 10)
		case m.se16&bit != 0:
			acc.emit(sfpcSE16<<16|word&0xFFFF, 18)
		default:
			acc.emit(sfpcUncomp<<32|word, 34)
		}
	}
	if acc.bits() >= 8*BlockSize {
		return appendStored(a.Name(), dst, block)
	}
	return Compressed{Alg: a.Name(), SizeBits: acc.bits(), Payload: acc.appendTo(dst)}
}

// DecompressInto implements Algorithm, one payload window per word.
func (a *SFPC) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	r := bitReader{buf: c.Payload}
	for i := 0; i < BlockSize/WordSize; i++ {
		w := r.peek()
		prefix := w >> 62
		w <<= 2 // the data field, MSB-aligned
		switch prefix {
		case sfpcZero:
			if !r.consume(2) {
				return ErrCorrupt
			}
			putWord(out, i, 0)
		case sfpcSE8:
			if !r.consume(10) {
				return ErrCorrupt
			}
			putWord(out, i, uint32(int64(w)>>56))
		case sfpcSE16:
			if !r.consume(18) {
				return ErrCorrupt
			}
			putWord(out, i, uint32(int64(w)>>48))
		case sfpcUncomp:
			if !r.consume(34) {
				return ErrCorrupt
			}
			putWord(out, i, uint32(w>>32))
		}
	}
	return nil
}
