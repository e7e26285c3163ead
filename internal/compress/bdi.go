package compress

import "encoding/binary"

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.,
// PACT 2012), the delta-family scheme the paper cites as [5] and lists in
// Table 1 (comp 1 cycle, decomp 1–5 cycles, ratio ≈1.57). A block is split
// into equal-width elements (8, 4 or 2 bytes); each element is encoded as a
// narrow signed delta against either an explicit base (the first element
// that is not near zero) or the implicit zero base, selected per element by
// a bitmask — exactly the B+Δ "two bases" formulation of the original
// paper. All seven (base,Δ) geometries plus the zero-block and
// repeated-value special cases are tried and the smallest wins.
type BDI struct{}

// NewBDI returns a BΔI compressor.
func NewBDI() *BDI { return &BDI{} }

// Name implements Algorithm.
func (*BDI) Name() string { return "bdi" }

// CompLatency implements Algorithm (Table 1: 1 cycle).
func (*BDI) CompLatency() int { return 1 }

// DecompLatency implements Algorithm (Table 1: 1~5 cycles; we use the
// midpoint 3, matching the paper's own delta configuration).
func (*BDI) DecompLatency() int { return 3 }

// bdiEncoding identifies a BΔI geometry.
type bdiEncoding struct {
	id        byte // payload tag
	baseBytes int
	deltaByts int
}

// bdiGeometries lists the candidate geometries in the order the original
// hardware evaluates them (all in parallel; ties broken by size). An
// array, so len(bdiGeometries) is a constant the kernel's fact array
// can use.
var bdiGeometries = [...]bdiEncoding{
	{2, 8, 1}, {3, 8, 2}, {4, 8, 4},
	{5, 4, 1}, {6, 4, 2},
	{7, 2, 1},
}

// bdiEncodingBits is the per-block metadata cost: a 4-bit encoding tag.
const bdiEncodingBits = 4

// bdiBestGeometry picks the winning geometry from bdiProbe's facts: the
// first strictly-smallest feasible candidate, in hardware evaluation
// order — exactly the old try-them-all loop's selection.
func bdiBestGeometry(facts *[len(bdiGeometries)]bdiFact) int {
	best := -1
	for gi := range facts {
		if !facts[gi].feasible {
			continue
		}
		if best < 0 || facts[gi].sizeBits < facts[best].sizeBits {
			best = gi
		}
	}
	return best
}

// bdiLayout appends one geometry known feasible (bdiProbe's fact
// supplies the base) to dst, replaying the per-element base selection of the
// scan: zero base when the sign-extended element fits, else the
// explicit base with the mask bit set. Only the winner is laid out.
func bdiLayout(name string, dst []byte, lanes *[BlockSize / FlitBytes]uint64, ws *[16]uint32, gi int, f *bdiFact) Compressed {
	g := &bdiGeometries[gi]
	n := BlockSize / g.baseBytes
	dbits := 8 * g.deltaByts
	baseBytes := 0
	if f.haveBase {
		baseBytes = g.baseBytes
	}
	maskLen := (n + 7) / 8
	dst, payload := grow(dst, 2+maskLen+baseBytes+n*g.deltaByts)
	payload[0] = g.id
	if f.haveBase {
		payload[1] = 1
		for b := 0; b < g.baseBytes; b++ {
			payload[2+b] = byte(f.base >> uint(8*b))
		}
	}
	mask := payload[2+baseBytes : 2+baseBytes+maskLen]
	pos := 2 + baseBytes + maskLen
	for i := 0; i < n; i++ {
		e := bdiElem(lanes, ws, g.baseBytes, i)
		se := signExtendWidth(e, g.baseBytes)
		var d int64
		if fitsSigned(se, dbits) {
			d = se // zero base
		} else {
			d = wrapDiff(e, f.base, g.baseBytes)
			mask[i/8] |= 1 << uint(i%8) // explicit base
		}
		u := uint64(d)
		for b := 0; b < g.deltaByts; b++ {
			payload[pos+b] = byte(u >> uint(8*b))
		}
		pos += g.deltaByts
	}
	return Compressed{Alg: name, SizeBits: f.sizeBits, Payload: dst}
}

// AppendCompress implements Algorithm via the word-parallel kernel: the
// six geometries are probed allocation-free over the register-resident
// block and only the winner is laid out.
func (a *BDI) AppendCompress(dst, block []byte) Compressed {
	checkBlock(block)
	lanes := words64(block)
	all := uint64(0)
	rep := true
	for _, l := range lanes {
		all |= l
		rep = rep && l == lanes[0]
	}
	if all == 0 {
		// Zero block: the 1-byte encoding tag and nothing else.
		return Compressed{Alg: a.Name(), SizeBits: bdiEncodingBits + 4, Payload: append(dst, 0)}
	}
	if rep {
		// Repeated 8-byte value: tag 1, then the value.
		dst, p := grow(dst, 1+8)
		p[0] = 1
		binary.LittleEndian.PutUint64(p[1:], lanes[0])
		return Compressed{Alg: a.Name(), SizeBits: bdiEncodingBits + 64, Payload: dst}
	}
	var ws [16]uint32
	for i, l := range lanes {
		ws[2*i] = uint32(l)
		ws[2*i+1] = uint32(l >> 32)
	}
	facts := bdiProbe(&lanes, &ws)
	best := bdiBestGeometry(&facts)
	if best < 0 {
		return appendStored(a.Name(), dst, block)
	}
	return bdiLayout(a.Name(), dst, &lanes, &ws, best, &facts[best])
}

// signExtendWidth sign-extends a width-byte little-endian element value.
func signExtendWidth(v uint64, widthBytes int) int64 {
	if widthBytes == 8 {
		return int64(v)
	}
	return signExtend(v, 8*widthBytes)
}

// wrapDiff computes the signed difference (e - base) modulo the element
// width, which is what a width-limited subtractor produces.
func wrapDiff(e, base uint64, widthBytes int) int64 {
	d := e - base
	if widthBytes == 8 {
		return int64(d)
	}
	return signExtend(d&(1<<uint(8*widthBytes)-1), 8*widthBytes)
}

// DecompressInto implements Algorithm.
func (a *BDI) DecompressInto(out *[BlockSize]byte, c Compressed) error {
	if c.Stored {
		return storedInto(out, c)
	}
	if len(c.Payload) < 1 {
		return ErrCorrupt
	}
	switch c.Payload[0] {
	case 0:
		*out = [BlockSize]byte{}
		return nil
	case 1:
		if len(c.Payload) != 9 {
			return ErrCorrupt
		}
		v := binary.LittleEndian.Uint64(c.Payload[1:])
		for i := 0; i < BlockSize; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], v)
		}
		return nil
	}
	var geo *bdiEncoding
	for i := range bdiGeometries {
		if bdiGeometries[i].id == c.Payload[0] {
			geo = &bdiGeometries[i]
			break
		}
	}
	if geo == nil || len(c.Payload) < 2 {
		return ErrCorrupt
	}
	n := BlockSize / geo.baseBytes
	pos := 1
	haveBase := c.Payload[pos] == 1
	pos++
	var base uint64
	if haveBase {
		if len(c.Payload) < pos+geo.baseBytes {
			return ErrCorrupt
		}
		var bb [8]byte
		copy(bb[:], c.Payload[pos:pos+geo.baseBytes])
		base = binary.LittleEndian.Uint64(bb[:])
		pos += geo.baseBytes
	}
	maskLen := (n + 7) / 8
	if len(c.Payload) != pos+maskLen+n*geo.deltaByts {
		return ErrCorrupt
	}
	mask := c.Payload[pos : pos+maskLen]
	pos += maskLen
	for i := 0; i < n; i++ {
		var raw uint64
		for b := 0; b < geo.deltaByts; b++ {
			raw |= uint64(c.Payload[pos+b]) << uint(8*b)
		}
		pos += geo.deltaByts
		d := signExtend(raw, 8*geo.deltaByts)
		v := uint64(d)
		if mask[i/8]&(1<<uint(i%8)) != 0 {
			if !haveBase {
				return ErrCorrupt
			}
			v = base + uint64(d)
		}
		switch geo.baseBytes {
		case 8:
			binary.LittleEndian.PutUint64(out[i*8:], v)
		case 4:
			binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(out[i*2:], uint16(v))
		}
	}
	return nil
}
