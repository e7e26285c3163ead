package compress

// CPack implements C-Pack (Chen et al., IEEE TVLSI 2010, the paper's
// reference [4]): each 32-bit word is matched against static frequent
// patterns and against a small FIFO dictionary of recently seen words,
// so both value locality within the line and partial matches are
// exploited. Table 1 of the DISCO paper lists C-Pack at 8-cycle
// decompression.
//
// Per-word codes (from the C-Pack paper, Table I):
//
//	zzzz 00               zero word
//	xxxx 01   +32 bits    uncompressed, pushed into the dictionary
//	mmmm 10   +4 bits     full dictionary match (index)
//	mmxx 1100 +4+16 bits  dict match on upper 2 bytes, lower 2 explicit; pushed
//	zzzx 1101 +8 bits     three zero bytes + one explicit low byte
//	mmmx 1110 +4+8 bits   dict match on upper 3 bytes, low byte explicit; pushed
//
// The dictionary is reset per block so every block stays independently
// decompressible (the hardware compresses paired lines; per-block reset is
// the conservative simplification and is noted in DESIGN.md).
type CPack struct{}

// NewCPack returns a C-Pack compressor.
func NewCPack() *CPack { return &CPack{} }

// Name implements Algorithm.
func (*CPack) Name() string { return "cpack" }

// CompLatency implements Algorithm (2 words/cycle over 16 words).
func (*CPack) CompLatency() int { return 8 }

// DecompLatency implements Algorithm (Table 1: 8 cycles).
func (*CPack) DecompLatency() int { return 8 }

// cpackDictSize is the FIFO dictionary depth (16 entries, 4-bit index).
const cpackDictSize = 16

// cpackDict is the FIFO replacement dictionary shared (in structure) by
// compressor and decompressor.
type cpackDict struct {
	entries [cpackDictSize]uint32
	n       int // valid entries
	next    int // FIFO insertion cursor
}

// push inserts a word FIFO-style.
func (d *cpackDict) push(w uint32) {
	d.entries[d.next] = w
	d.next = (d.next + 1) % cpackDictSize
	if d.n < cpackDictSize {
		d.n++
	}
}

// match scans for the best match, preferring full over 3-byte over 2-byte.
// kind: 0 none, 2 upper-2-byte, 3 upper-3-byte, 4 full.
func (d *cpackDict) match(w uint32) (idx, kind int) {
	best := 0
	bestIdx := -1
	for i := 0; i < d.n; i++ {
		e := d.entries[i]
		var k int
		switch {
		case e == w:
			k = 4
		case e>>8 == w>>8:
			k = 3
		case e>>16 == w>>16:
			k = 2
		}
		if k > best {
			best, bestIdx = k, i
		}
	}
	return bestIdx, best
}

// AppendCompress implements Algorithm. Each word's code and fields
// go out as one MSB-first field (bit-identical to writing them one by
// one, since MSB-first concatenation is associative).
func (a *CPack) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	ws := words32(block)
	var w bitAcc
	var dict cpackDict
	for _, word := range ws {
		if word == 0 {
			w.emit(0b00, 2)
			continue
		}
		idx, kind := dict.match(word)
		switch {
		case kind == 4:
			w.emit(0b10<<4|uint64(idx), 6)
		case kind == 3:
			w.emit(0b1110<<12|uint64(idx)<<8|uint64(word)&0xFF, 16)
			dict.push(word)
		case word&0xFFFFFF00 == 0:
			w.emit(0b1101<<8|uint64(word)&0xFF, 12)
		case kind == 2:
			w.emit(0b1100<<20|uint64(idx)<<16|uint64(word)&0xFFFF, 24)
			dict.push(word)
		default:
			w.emit(0b01<<32|uint64(word), 34)
			dict.push(word)
		}
	}
	if w.bits() >= 8*BlockSize {
		return appendStored(a.Name(), dst, block)
	}
	return Compressed{Alg: a.Name(), SizeBits: w.bits(), Payload: w.appendTo(dst)}
}

// DecompressInto implements Algorithm. Each word takes one window of
// the payload: its 2- or 4-bit code and its fields (≤ 34 bits in all).
func (a *CPack) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	r := bitReader{buf: c.Payload}
	var dict cpackDict
	for i := 0; i < BlockSize/WordSize; i++ {
		w := r.peek()
		switch w >> 62 {
		case 0b00: // 00 zzzz
			if !r.consume(2) {
				return ErrCorrupt
			}
			putWord(out, i, 0)
		case 0b01: // 01 xxxx
			if !r.consume(34) {
				return ErrCorrupt
			}
			word := uint32(w << 2 >> 32)
			dict.push(word)
			putWord(out, i, word)
		case 0b10: // 10 mmmm
			idx := int(w << 2 >> 60)
			if !r.consume(6) || idx >= dict.n {
				return ErrCorrupt
			}
			putWord(out, i, dict.entries[idx])
		default: // 11xx extended codes
			idx := int(w << 4 >> 60)
			switch w << 2 >> 62 {
			case 0b00: // mmxx
				if !r.consume(24) || idx >= dict.n {
					return ErrCorrupt
				}
				word := dict.entries[idx]&0xFFFF0000 | uint32(w<<8>>48)
				dict.push(word)
				putWord(out, i, word)
			case 0b01: // zzzx
				if !r.consume(12) {
					return ErrCorrupt
				}
				putWord(out, i, uint32(w<<4>>56))
			case 0b10: // mmmx
				if !r.consume(16) || idx >= dict.n {
					return ErrCorrupt
				}
				word := dict.entries[idx]&0xFFFFFF00 | uint32(w<<8>>56)
				dict.push(word)
				putWord(out, i, word)
			default:
				return ErrCorrupt
			}
		}
	}
	return nil
}
