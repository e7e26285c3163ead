package compress

import "math/bits"

// This file is the word-parallel kernel the codec encoders share (see
// DESIGN.md §12). Each encoder loads its 64-byte block once into 64- or
// 32-bit lanes and computes the per-word facts it needs — zero words and
// sign-extension widths (classifyWords32), base-delta residual widths
// (deltaWidths8, halfDeltaScan), BΔI geometry feasibility (bdiProbe) — in
// branch-poor scans over those registers, then lays out only the winning
// encoding. Every codec has exactly one encoder, its AppendCompress. The
// scalar reference encoders (reference_test.go), the committed vector
// and SC2 corpora and FuzzKernelEquivalence pin every emitted bit.

// wordMasks are per-32-bit-word classification bitmaps (bit i = word i):
// the patterns FPC/SFPC match, each derivable from one sign-folded
// leading-zero count per word.
type wordMasks struct {
	zero    uint16 // word == 0
	se4     uint16 // fits 4-bit sign-extended
	se8     uint16 // fits 8-bit sign-extended
	se16    uint16 // fits 16-bit sign-extended
	pad16   uint16 // low halfword all zero
	twoHalf uint16 // both halfwords fit 8-bit sign-extended
	repByte uint16 // all four bytes equal
}

// b16 is the branch-free bool-to-bitmask building block (compiles to a
// flag set, not a jump).
func b16(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// classifyWords32 computes the FPC-family pattern masks for all 16 words
// in one pass. A value fits an n-bit two's-complement field iff its
// sign-folded magnitude has at most n-1 significant bits, so one
// bits.Len32 per word answers every sign-extension width at once.
func classifyWords32(ws *[16]uint32) wordMasks {
	var m wordMasks
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		bit := uint16(1) << uint(i)
		l := bits.Len32(w ^ uint32(int32(w)>>31))
		m.zero |= bit * b16(w == 0)
		m.se4 |= bit * b16(l <= 3)
		m.se8 |= bit * b16(l <= 7)
		m.se16 |= bit * b16(l <= 15)
		m.pad16 |= bit * b16(w&0xFFFF == 0)
		hi, lo := uint16(w>>16), uint16(w)
		m.twoHalf |= bit * b16(hi^uint16(int16(hi)>>15) < 0x80 && lo^uint16(int16(lo)>>15) < 0x80)
		m.repByte |= bit * b16(w == (w&0xFF)*0x01010101)
	}
	return m
}

// deltaWidths8 is the width scan of the paper's 8-byte-flit delta unit
// (Fig. 4), run by Delta.AppendCompress: wZero[i] is the minimal
// delta width of flit i+1 against the zero base (0 = unrepresentable),
// req is the width the unit bank would select (0 = infeasible).
func deltaWidths8(flits *[BlockSize / FlitBytes]uint64) (req int, wZero [deltaFlits]uint8) {
	req = 1
	for i := 0; i < deltaFlits; i++ {
		wz := minDeltaWidth(int64(flits[i+1]), 4)
		wZero[i] = uint8(wz)
		w := wz
		if w != 1 {
			// Only the BF0 base can improve on (or rescue) this flit.
			if wb := minDeltaWidth(int64(flits[i+1]-flits[0]), 4); wb != 0 && (w == 0 || wb < w) {
				w = wb
			}
		}
		if w == 0 {
			return 0, wZero
		}
		if w > req {
			req = w
		}
	}
	return req, wZero
}

// halfDeltaScan computes, uncapped (width 2 is the widest the half-flit
// unit ever uses), the per-element minimal widths against the zero base
// and the explicit base. Any cap is then evaluated by clamping: a stored
// width above the cap means "unrepresentable at this cap", exactly what
// minDeltaWidth(x, cap) reports.
func halfDeltaScan(ws *[16]uint32) (wZero, wBase [halfDeltaElems - 1]uint8) {
	for i := 0; i < halfDeltaElems-1; i++ {
		wZero[i] = uint8(minDeltaWidth(int64(int32(ws[i+1])), 2))
		wBase[i] = uint8(minDeltaWidth(int64(int32(ws[i+1]-ws[0])), 2))
	}
	return wZero, wBase
}

// halfDeltaReq replays the half-flit unit's width selection at the given
// cap over pre-scanned widths. ok is false when some element fits
// neither base within the cap.
func halfDeltaReq(wZero, wBase *[halfDeltaElems - 1]uint8, max int) (req int, ok bool) {
	req = 1
	for i := 0; i < halfDeltaElems-1; i++ {
		wz := int(wZero[i])
		if wz > max {
			wz = 0
		}
		w := wz
		if w != 1 {
			wb := int(wBase[i])
			if wb > max {
				wb = 0
			}
			if wb != 0 && (w == 0 || wb < w) {
				w = wb
			}
		}
		if w == 0 {
			return 0, false
		}
		if w > req {
			req = w
		}
	}
	return req, true
}

// layoutHalfDelta appends the half-flit encoding at width req to dst:
// marker 0xF0|width, 2-byte base-select bitmap, 4-byte base, deltas.
func layoutHalfDelta(dst []byte, ws *[16]uint32, wZero *[halfDeltaElems - 1]uint8, req int) []byte {
	dst, out := grow(dst, 7+(halfDeltaElems-1)*req)
	out[3], out[4], out[5], out[6] = byte(ws[0]), byte(ws[0]>>8), byte(ws[0]>>16), byte(ws[0]>>24)
	var zeroSel uint16
	pos := 7
	for i := 0; i < halfDeltaElems-1; i++ {
		var v uint32
		if wZero[i] != 0 && int(wZero[i]) <= req {
			// Prefer the zero base on ties (all-zero tails encode as zeros).
			zeroSel |= 1 << uint(i)
			v = ws[i+1]
		} else {
			v = ws[i+1] - ws[0]
		}
		for b := 0; b < req; b++ {
			out[pos+b] = byte(v >> uint(8*b))
		}
		pos += req
	}
	out[0], out[1], out[2] = byte(0xF0|req), byte(zeroSel), byte(zeroSel>>8)
	return dst
}

// bdiFact is one BΔI geometry's probe result: feasibility, the explicit
// base the hardware would latch (the first element whose zero-base delta
// does not fit), and the exact encoded size.
type bdiFact struct {
	feasible bool
	haveBase bool
	base     uint64
	sizeBits int
}

// bdiElem reads the i-th width-byte element from the preloaded lanes.
func bdiElem(lanes *[BlockSize / FlitBytes]uint64, ws *[16]uint32, width, i int) uint64 {
	switch width {
	case 8:
		return lanes[i]
	case 4:
		return uint64(ws[i])
	default:
		return uint64(uint16(ws[i>>1] >> uint(16*(i&1))))
	}
}

// bdiProbe evaluates all six BΔI geometries in one pass each over the
// register-resident elements — no payload is laid out, so probing a
// block allocates nothing. The fused scan is equivalent to the
// two-pass formulation: the base is the first element whose zero delta
// does not fit, elements before it all fit the zero base by definition,
// and elements after it are checked against both bases.
func bdiProbe(lanes *[BlockSize / FlitBytes]uint64, ws *[16]uint32) (facts [len(bdiGeometries)]bdiFact) {
	for gi := range bdiGeometries {
		g := &bdiGeometries[gi]
		n := BlockSize / g.baseBytes
		dbits := 8 * g.deltaByts
		var base uint64
		haveBase := false
		feasible := true
		for i := 0; i < n; i++ {
			e := bdiElem(lanes, ws, g.baseBytes, i)
			if fitsSigned(signExtendWidth(e, g.baseBytes), dbits) {
				continue
			}
			if !haveBase {
				base, haveBase = e, true
				continue // delta against itself is 0
			}
			if fitsSigned(wrapDiff(e, base, g.baseBytes), dbits) {
				continue
			}
			feasible = false
			break
		}
		baseBytes := 0
		if haveBase {
			baseBytes = g.baseBytes
		}
		facts[gi] = bdiFact{
			feasible: feasible,
			haveBase: haveBase,
			base:     base,
			sizeBits: bdiEncodingBits + n + 8*baseBytes + 8*n*g.deltaByts,
		}
	}
	return facts
}
