package compress

// Scalar reference encoders: verbatim copies of the pre-kernel (word-at-
// a-time, branchy) Compress implementations, retained as the ground
// truth for the word-parallel kernels. FuzzKernelEquivalence asserts the
// rewritten hot paths produce bit-identical Compressed results against
// these references for every codec; the copies deliberately share as
// little as possible with the production code (only the stable bitWriter
// and the sign-extension helpers, whose formats are pinned by their own
// oracle tests). The retrain section below does the same for the SC²/FVC
// table builders (TestRetrainMatchesOracle, FuzzRetrainEquivalence).

import (
	"container/heap"
	"encoding/binary"
	"sort"
)

// --- delta ------------------------------------------------------------------

func refMinDeltaWidth(x int64, max int) int {
	switch {
	case fitsSigned(x, 8):
		return 1
	case fitsSigned(x, 16) && max >= 2:
		return 2
	case fitsSigned(x, 32) && max >= 4:
		return 4
	}
	return 0
}

func refCompressHalfDelta(block []byte, max int) ([]byte, int) {
	var elems [halfDeltaElems]uint32
	for i := range elems {
		elems[i] = binary.LittleEndian.Uint32(block[i*4:])
	}
	var wZero [halfDeltaElems - 1]int
	req := 1
	for i := 0; i < halfDeltaElems-1; i++ {
		dZero := int64(int32(elems[i+1]))
		wz := refMinDeltaWidth(dZero, max)
		wZero[i] = wz
		w := wz
		if w != 1 {
			dBase := int64(int32(elems[i+1] - elems[0]))
			if wb := refMinDeltaWidth(dBase, max); wb != 0 && (w == 0 || wb < w) {
				w = wb
			}
		}
		if w == 0 {
			return nil, 0
		}
		if w > req {
			req = w
		}
	}
	out := make([]byte, 7+(halfDeltaElems-1)*req)
	out[3], out[4], out[5], out[6] = block[0], block[1], block[2], block[3]
	var zeroSel uint16
	pos := 7
	for i := 0; i < halfDeltaElems-1; i++ {
		var v uint32
		if wZero[i] != 0 && wZero[i] <= req {
			zeroSel |= 1 << uint(i)
			v = elems[i+1]
		} else {
			v = elems[i+1] - elems[0]
		}
		for b := 0; b < req; b++ {
			out[pos+b] = byte(v >> uint(8*b))
		}
		pos += req
	}
	out[0], out[1], out[2] = byte(0xF0|req), byte(zeroSel), byte(zeroSel>>8)
	return out, req
}

func refCompressDelta(name string, block []byte) Compressed {
	flits := words64(block)
	var wZero [deltaFlits]int
	req8 := 1
	for i := 0; i < deltaFlits; i++ {
		wz := refMinDeltaWidth(int64(flits[i+1]), 4)
		wZero[i] = wz
		w := wz
		if w != 1 {
			if wb := refMinDeltaWidth(int64(flits[i+1]-flits[0]), 4); wb != 0 && (w == 0 || wb < w) {
				w = wb
			}
		}
		if w == 0 {
			req8 = 0
			break
		}
		if w > req8 {
			req8 = w
		}
	}
	capHalf := 0
	switch {
	case req8 == 0 || req8 == 4:
		capHalf = 2
	case req8 == 2:
		capHalf = 1
	}
	if capHalf != 0 {
		if payload, reqHalf := refCompressHalfDelta(block, capHalf); payload != nil {
			return Compressed{Alg: name, SizeBits: halfDeltaSizeBits(reqHalf), Payload: payload}
		}
	}
	if req8 == 0 {
		return stored(name, block)
	}
	out := make([]byte, 2+FlitBytes+deltaFlits*req8)
	binary.LittleEndian.PutUint64(out[2:], flits[0])
	var zeroSel uint8
	pos := 2 + FlitBytes
	for i := 0; i < deltaFlits; i++ {
		var v uint64
		if wZero[i] != 0 && wZero[i] <= req8 {
			zeroSel |= 1 << uint(i)
			v = flits[i+1]
		} else {
			v = flits[i+1] - flits[0]
		}
		for b := 0; b < req8; b++ {
			out[pos+b] = byte(v >> uint(8*b))
		}
		pos += req8
	}
	out[0], out[1] = byte(req8), zeroSel
	return Compressed{Alg: name, SizeBits: deltaSizeBits(req8), Payload: out}
}

// --- bdi --------------------------------------------------------------------

func refBDIElement(block []byte, width, i int) uint64 {
	switch width {
	case 8:
		return binary.LittleEndian.Uint64(block[i*8:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(block[i*4:]))
	default:
		return uint64(binary.LittleEndian.Uint16(block[i*2:]))
	}
}

func refBDITry(alg string, block []byte, g bdiEncoding) (Compressed, bool) {
	n := BlockSize / g.baseBytes
	dbits := 8 * g.deltaByts
	var base uint64
	haveBase := false
	for i := 0; i < n; i++ {
		e := refBDIElement(block, g.baseBytes, i)
		if !fitsSigned(int64(signExtendWidth(e, g.baseBytes)), dbits) {
			base, haveBase = e, true
			break
		}
	}
	mask := make([]byte, (n+7)/8)
	deltas := make([]byte, 0, n*g.deltaByts)
	for i := 0; i < n; i++ {
		e := refBDIElement(block, g.baseBytes, i)
		se := signExtendWidth(e, g.baseBytes)
		var d int64
		switch {
		case fitsSigned(se, dbits):
			d = se
		case haveBase && fitsSigned(wrapDiff(e, base, g.baseBytes), dbits):
			d = wrapDiff(e, base, g.baseBytes)
			mask[i/8] |= 1 << uint(i%8)
		default:
			return Compressed{}, false
		}
		u := uint64(d)
		for b := 0; b < g.deltaByts; b++ {
			deltas = append(deltas, byte(u>>uint(8*b)))
		}
	}
	baseBytes := 0
	if haveBase {
		baseBytes = g.baseBytes
	}
	sizeBits := bdiEncodingBits + n + 8*baseBytes + 8*len(deltas)
	payload := make([]byte, 0, 2+len(mask)+baseBytes+len(deltas))
	payload = append(payload, g.id)
	if haveBase {
		payload = append(payload, 1)
		var bb [8]byte
		binary.LittleEndian.PutUint64(bb[:], base)
		payload = append(payload, bb[:g.baseBytes]...)
	} else {
		payload = append(payload, 0)
	}
	payload = append(payload, mask...)
	payload = append(payload, deltas...)
	return Compressed{Alg: alg, SizeBits: sizeBits, Payload: payload}, true
}

func refCompressBDI(name string, block []byte) Compressed {
	zero := true
	for _, b := range block {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return Compressed{Alg: name, SizeBits: bdiEncodingBits + 4, Payload: []byte{0}}
	}
	rep := binary.LittleEndian.Uint64(block)
	isRep := true
	for i := FlitBytes; i < BlockSize; i += FlitBytes {
		if binary.LittleEndian.Uint64(block[i:]) != rep {
			isRep = false
			break
		}
	}
	if isRep {
		p := make([]byte, 1+8)
		p[0] = 1
		binary.LittleEndian.PutUint64(p[1:], rep)
		return Compressed{Alg: name, SizeBits: bdiEncodingBits + 64, Payload: p}
	}
	best := Compressed{SizeBits: 8 * BlockSize}
	found := false
	for _, g := range bdiGeometries {
		c, ok := refBDITry(name, block, g)
		if ok && (!found || c.SizeBits < best.SizeBits) {
			best, found = c, true
		}
	}
	if found && best.SizeBits < 8*BlockSize {
		return best
	}
	return stored(name, block)
}

// --- fpc / sfpc -------------------------------------------------------------

func refHalfIsSE8(h uint16) bool { return fitsSigned(int64(int16(h)), 8) }

func refCompressFPC(name string, block []byte) Compressed {
	ws := words32(block)
	w := bitWriter{buf: make([]byte, 0, BlockSize+8)}
	for i := 0; i < len(ws); {
		if ws[i] == 0 {
			run := 1
			for i+run < len(ws) && ws[i+run] == 0 && run < 8 {
				run++
			}
			w.writeBits(fpcZeroRun, 3)
			w.writeBits(uint64(run-1), 3)
			i += run
			continue
		}
		word := ws[i]
		se := int64(int32(word))
		switch {
		case fitsSigned(se, 4):
			w.writeBits(fpcSE4, 3)
			w.writeBits(uint64(word)&0xF, 4)
		case fitsSigned(se, 8):
			w.writeBits(fpcSE8, 3)
			w.writeBits(uint64(word)&0xFF, 8)
		case fitsSigned(se, 16):
			w.writeBits(fpcSE16, 3)
			w.writeBits(uint64(word)&0xFFFF, 16)
		case word&0xFFFF == 0:
			w.writeBits(fpcPadded16, 3)
			w.writeBits(uint64(word>>16), 16)
		case refHalfIsSE8(uint16(word>>16)) && refHalfIsSE8(uint16(word)):
			w.writeBits(fpcTwoHalf, 3)
			w.writeBits(uint64(word>>16)&0xFF, 8)
			w.writeBits(uint64(word)&0xFF, 8)
		case word == (word&0xFF)|(word&0xFF)<<8|(word&0xFF)<<16|(word&0xFF)<<24:
			w.writeBits(fpcRepByte, 3)
			w.writeBits(uint64(word)&0xFF, 8)
		default:
			w.writeBits(fpcUncompact, 3)
			w.writeBits(uint64(word), 32)
		}
		i++
	}
	if w.bits() >= 8*BlockSize {
		return stored(name, block)
	}
	return Compressed{Alg: name, SizeBits: w.bits(), Payload: w.bytes()}
}

func refCompressSFPC(name string, block []byte) Compressed {
	ws := words32(block)
	w := bitWriter{buf: make([]byte, 0, BlockSize+8)}
	for _, word := range ws {
		se := int64(int32(word))
		switch {
		case word == 0:
			w.writeBits(sfpcZero, 2)
		case fitsSigned(se, 8):
			w.writeBits(sfpcSE8, 2)
			w.writeBits(uint64(word)&0xFF, 8)
		case fitsSigned(se, 16):
			w.writeBits(sfpcSE16, 2)
			w.writeBits(uint64(word)&0xFFFF, 16)
		default:
			w.writeBits(sfpcUncomp, 2)
			w.writeBits(uint64(word), 32)
		}
	}
	if w.bits() >= 8*BlockSize {
		return stored(name, block)
	}
	return Compressed{Alg: name, SizeBits: w.bits(), Payload: w.bytes()}
}

// --- sc2 --------------------------------------------------------------------

// refSC2Index rebuilds the value -> symbol map from the trained table
// (the production encoder no longer keeps a map).
func refSC2Index(s *SC2) map[uint32]int {
	idx := make(map[uint32]int, len(s.values))
	for i, v := range s.values {
		idx[v] = i
	}
	return idx
}

func refCompressSC2(s *SC2, idx map[uint32]int, block []byte) Compressed {
	if !s.trained {
		return stored(s.Name(), block)
	}
	var w bitWriter
	w.buf = make([]byte, 0, BlockSize+8)
	esc := s.codes[s.escapeSym()]
	for i := 0; i < BlockSize; i += WordSize {
		word := binary.LittleEndian.Uint32(block[i:])
		if sym, ok := idx[word]; ok {
			c := s.codes[sym]
			w.writeBits(uint64(c.bits), c.len)
		} else {
			w.writeBits(uint64(esc.bits), esc.len)
			w.writeBits(uint64(word), 32)
		}
		if w.bits()+sc2HeaderBits >= 8*BlockSize {
			return stored(s.Name(), block)
		}
	}
	return Compressed{Alg: s.Name(), SizeBits: w.bits() + sc2HeaderBits, Payload: w.bytes()}
}

// --- retrain ----------------------------------------------------------------

// The pre-histogram retrain path, kept as the definition the production
// tables must match byte for byte: copy the whole frequency map into a
// slice, sort all of it (count desc, value asc), keep the head, then
// run Huffman through container/heap and assign/decode canonical codes
// through comparison sorts.

type refVF struct {
	v uint32
	f uint64
}

// refTopK is the full-sort top-k of a frequency map.
func refTopK(freq map[uint32]uint64, k int) []refVF {
	all := make([]refVF, 0, len(freq))
	for v, f := range freq {
		all = append(all, refVF{v, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].v < all[j].v
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// refSC2Tables is SC2.Retrain's old body: value table, canonical codes
// and decoder.
func refSC2Tables(freq map[uint32]uint64) ([]uint32, []huffCode, huffDecoder) {
	var total uint64
	for _, f := range freq {
		total += f
	}
	top := refTopK(freq, sc2TableSize-1)
	values := make([]uint32, 0, len(top))
	freqs := make([]uint64, len(top)+1)
	var covered uint64
	for i, e := range top {
		values = append(values, e.v)
		freqs[i] = e.f + 1
		covered += e.f
	}
	freqs[len(top)] = total - covered + 1 // escape
	codes := refCanonicalAssign(refHuffLengths(freqs, sc2MaxCodeLen))
	var dec huffDecoder
	refDecoderBuild(&dec, codes)
	return values, codes, dec
}

// refFVCValues is FVC.Retrain's old value-table selection.
func refFVCValues(freq map[uint32]uint64) []uint32 {
	top := refTopK(freq, fvcTableSize)
	values := make([]uint32, 0, len(top))
	for _, e := range top {
		values = append(values, e.v)
	}
	return values
}

type refHuffNode struct {
	weight uint64
	sym    int // -1 for internal
	left   int
	right  int
}

// refHuffHeap orders node-arena indices by weight (ties by index).
type refHuffHeap struct {
	arena *[]refHuffNode
	idx   []int
}

func (h refHuffHeap) Len() int { return len(h.idx) }
func (h refHuffHeap) Less(i, j int) bool {
	a, b := (*h.arena)[h.idx[i]], (*h.arena)[h.idx[j]]
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return h.idx[i] < h.idx[j]
}
func (h refHuffHeap) Swap(i, j int)       { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *refHuffHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *refHuffHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

func refHuffLengths(freq []uint64, maxLen int) []int {
	f := append([]uint64(nil), freq...)
	for {
		lens := refBuildLengths(f)
		maxSeen := 0
		for _, l := range lens {
			if l > maxSeen {
				maxSeen = l
			}
		}
		if maxSeen <= maxLen {
			return lens
		}
		for i := range f {
			f[i] = f[i]/2 + 1
		}
	}
}

func refBuildLengths(freq []uint64) []int {
	n := len(freq)
	lens := make([]int, n)
	if n == 0 {
		return lens
	}
	if n == 1 {
		lens[0] = 1
		return lens
	}
	arena := make([]refHuffNode, 0, 2*n)
	h := refHuffHeap{arena: &arena}
	for i := 0; i < n; i++ {
		arena = append(arena, refHuffNode{weight: freq[i], sym: i, left: -1, right: -1})
		h.idx = append(h.idx, i)
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(int)
		b := heap.Pop(&h).(int)
		arena = append(arena, refHuffNode{weight: arena[a].weight + arena[b].weight, sym: -1, left: a, right: b})
		heap.Push(&h, len(arena)-1)
	}
	root := h.idx[0]
	var walk func(node, depth int)
	walk = func(node, depth int) {
		nd := arena[node]
		if nd.sym >= 0 {
			if depth == 0 {
				depth = 1
			}
			lens[nd.sym] = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)
	return lens
}

func refCanonicalAssign(lens []int) []huffCode {
	n := len(lens)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if lens[order[a]] != lens[order[b]] {
			return lens[order[a]] < lens[order[b]]
		}
		return order[a] < order[b]
	})
	codes := make([]huffCode, n)
	code := uint32(0)
	prevLen := 0
	for _, sym := range order {
		l := lens[sym]
		if prevLen != 0 {
			code = (code + 1) << uint(l-prevLen)
		}
		codes[sym] = huffCode{bits: code, len: l}
		prevLen = l
	}
	return codes
}

func refDecoderBuild(d *huffDecoder, codes []huffCode) {
	*d = huffDecoder{symbols: make([]int, 0, len(codes))}
	type entry struct {
		sym  int
		code huffCode
	}
	all := make([]entry, 0, len(codes))
	for s, c := range codes {
		all = append(all, entry{s, c})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].code.len != all[b].code.len {
			return all[a].code.len < all[b].code.len
		}
		return all[a].code.bits < all[b].code.bits
	})
	for l := 1; l <= sc2MaxCodeLen; l++ {
		d.firstIdx[l] = len(d.symbols)
		first := true
		for _, e := range all {
			if e.code.len != l {
				continue
			}
			if first {
				d.firstCode[l] = e.code.bits
				first = false
			}
			d.symbols = append(d.symbols, e.sym)
			d.count[l]++
		}
	}
}

// --- hybrid -----------------------------------------------------------------

// refCompressHybrid is the pre-probe selection loop: run every unit's
// full encoder, keep the strictly smallest non-stored result (earliest
// unit wins ties), prepend the unit tag.
func refCompressHybrid(h *Hybrid, block []byte) Compressed {
	best := -1
	var bestC Compressed
	for i, u := range h.units {
		c := u.Compress(block)
		if c.Stored {
			continue
		}
		if best < 0 || c.SizeBits < bestC.SizeBits {
			best, bestC = i, c
		}
	}
	if best < 0 || bestC.SizeBits+hybridTagBits >= 8*BlockSize {
		return stored(h.name, block)
	}
	payload := append([]byte{byte(best)}, bestC.Payload...)
	return Compressed{
		Alg:      h.name,
		SizeBits: bestC.SizeBits + hybridTagBits,
		Stored:   bestC.Stored,
		Payload:  payload,
	}
}
