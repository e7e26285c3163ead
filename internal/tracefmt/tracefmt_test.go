package tracefmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{Cycle: 0, Router: -1, Kind: KindInject, HasPacket: true,
			Pkt: PacketInfo{ID: 1, Src: 0, Dst: 15, Class: 1,
				Flags: PFCompressible | PFWantComp, Flits: 9}},
		{Cycle: 7, Router: 3, Kind: KindRoute, HasPacket: true,
			Pkt: PacketInfo{ID: 1, Src: 0, Dst: 15, Class: 1, Flits: 9}},
		{Cycle: 12, Router: 3, Kind: KindEngineStart, HasPacket: true,
			Pkt: PacketInfo{ID: 1, Src: 0, Dst: 15, Class: 1, Flits: 9}},
		{Cycle: 40, Router: 15, Kind: KindEject, HasPacket: true,
			Pkt: PacketInfo{ID: 1, Src: 0, Dst: 15, Class: 1,
				Flags: PFCompressed | PFCompressible, Flits: 4,
				Hops: 6, Conversions: 1, Queueing: 11, EngineCycles: 9, EngineStall: 2}},
		{Cycle: 41, Router: 2, Kind: KindVAGrant}, // packetless record
	}
	buf := AppendHeader(nil, 16)
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	r, err := NewReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes() != 16 || r.Version() != Version {
		t.Errorf("header nodes=%d version=%d", r.Nodes(), r.Version())
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != recs[i] {
			t.Errorf("record %d round-trip:\n got %+v\nwant %+v", i, got, recs[i])
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF at stream end, got %v", err)
	}
}

// FuzzReader feeds arbitrary bytes to the reader, which parses trace
// files straight off disk: it must never panic, every failure must come
// back as a returned error, the record buffer must stay within
// maxRecordLen, and every record it accepts must re-encode to one that
// reads back identically.
func FuzzReader(f *testing.F) {
	valid := AppendHeader(nil, 16)
	valid = AppendRecord(valid, &Record{Cycle: 40, Router: 15, Kind: KindEject, HasPacket: true,
		Pkt: PacketInfo{ID: 1, Src: 0, Dst: 15, Class: 1, Flags: PFCompressed, Flits: 4,
			Hops: 6, Conversions: 1, Queueing: 11, EngineCycles: 9, EngineStall: 2}})
	valid = AppendRecord(valid, &Record{Cycle: 41, Router: -1, Kind: KindStall})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(AppendHeader(nil, 0))
	f.Add(append(AppendHeader(nil, 4), 0xff, 0xff, 0x04)) // oversized length
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			rec, err := r.Next()
			if cap(r.scratch) > maxRecordLen {
				t.Fatalf("record buffer grew to %d bytes, bound %d", cap(r.scratch), maxRecordLen)
			}
			if err != nil {
				return
			}
			again := AppendRecord(AppendHeader(nil, r.Nodes()), &rec)
			rr, err := NewReader(bytes.NewReader(again))
			if err != nil {
				t.Fatalf("re-encoded header rejected: %v", err)
			}
			if got, err := rr.Next(); err != nil || got != rec {
				t.Fatalf("re-encoded record read back as %+v, %v; want %+v", got, err, rec)
			}
		}
	})
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Error("bad magic should be rejected")
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	var buf []byte
	buf = append(buf, Magic...)
	buf = append(buf, 0x7f, 0) // version 127, nodes 0
	if _, err := NewReader(bytes.NewReader(buf)); err == nil {
		t.Error("future version should be rejected")
	}
}

func TestTruncatedRecordReported(t *testing.T) {
	rec := Record{Cycle: 5, Router: 1, Kind: KindEject, HasPacket: true,
		Pkt: PacketInfo{ID: 9, Flits: 4}}
	buf := AppendHeader(nil, 4)
	buf = AppendRecord(buf, &rec)
	r, err := NewReader(bytes.NewReader(buf[:len(buf)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated record should error")
	}
}

// TestTruncatedHeader pins NewReader's behavior on every header cut
// point: inside the magic, after it, and inside the varint fields.
func TestTruncatedHeader(t *testing.T) {
	full := AppendHeader(nil, 300) // nodes=300 needs a 2-byte uvarint
	for cut := 0; cut < len(full); cut++ {
		if _, err := NewReader(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("header truncated to %d of %d bytes accepted", cut, len(full))
		}
	}
	if _, err := NewReader(bytes.NewReader(full)); err != nil {
		t.Errorf("intact header rejected: %v", err)
	}
}

// TestImplausibleRecordLength pins the corruption guard on the length
// prefix: zero and anything beyond maxRecordLen are structural errors,
// not allocations.
func TestImplausibleRecordLength(t *testing.T) {
	for _, c := range []struct {
		name   string
		length uint64
	}{
		{"zero length", 0},
		{"oversized length", maxRecordLen + 1},
	} {
		buf := AppendHeader(nil, 4)
		var tmp [10]byte
		n := binary.PutUvarint(tmp[:], c.length)
		buf = append(buf, tmp[:n]...)
		r, err := NewReader(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: want implausible-length error, got %v", c.name, err)
		}
	}
}

// TestCorruptMidVarint cuts a varint mid-field but keeps the record
// length honest: the payload ends inside the cycle field's continuation
// bytes, which must surface as a corrupt-record error rather than a
// silent zero.
func TestCorruptMidVarint(t *testing.T) {
	payload := []byte{byte(KindRoute), 0x80} // cycle varint: continuation bit, then nothing
	buf := AppendHeader(nil, 4)
	buf = append(buf, byte(len(payload)))
	buf = append(buf, payload...)
	r, err := NewReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("want corrupt-record error for mid-varint cut, got %v", err)
	}
}

// TestUnknownEventKind pins forward compatibility: a kind code this
// reader does not know decodes without error (analyzers skip what they
// do not recognize) and stringifies as kind(N).
func TestUnknownEventKind(t *testing.T) {
	payload := []byte{200, 5, 4, 0} // kind 200, cycle 5, router 2, no packet
	buf := AppendHeader(nil, 4)
	buf = append(buf, byte(len(payload)))
	buf = append(buf, payload...)
	r, err := NewReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("unknown kind should decode: %v", err)
	}
	if rec.Kind != Kind(200) || rec.Cycle != 5 || rec.Router != 2 {
		t.Errorf("decoded %+v, want kind 200 at cycle 5 router 2", rec)
	}
	if got := rec.Kind.String(); got != "kind(200)" {
		t.Errorf("Kind.String() = %q, want kind(200)", got)
	}
}

// TestShortRecordZeroFills pins backward compatibility: a payload that
// ends exactly on a field boundary (an older writer that knew fewer
// fields) decodes cleanly with the missing fields zeroed, unlike the
// mid-varint cut above.
func TestShortRecordZeroFills(t *testing.T) {
	payload := []byte{byte(KindStall), 9, 6} // cycle 9, router 3; flags byte absent
	buf := AppendHeader(nil, 4)
	buf = append(buf, byte(len(payload)))
	buf = append(buf, payload...)
	r, err := NewReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("field-boundary short record should decode: %v", err)
	}
	want := Record{Kind: KindStall, Cycle: 9, Router: 3}
	if rec != want {
		t.Errorf("decoded %+v, want %+v", rec, want)
	}
}

// TestTruncatedBodyIsUnexpectedEOF pins the error identity contract
// readers dispatch on: truncation inside a record body is
// io.ErrUnexpectedEOF (never a clean io.EOF), at every cut point.
func TestTruncatedBodyIsUnexpectedEOF(t *testing.T) {
	rec := Record{Cycle: 5, Router: 1, Kind: KindEject, HasPacket: true,
		Pkt: PacketInfo{ID: 9, Flits: 4, Queueing: 300, EngineStall: 7}}
	header := AppendHeader(nil, 4)
	full := AppendRecord(header, &rec)
	for cut := len(header) + 2; cut < len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d of %d: want io.ErrUnexpectedEOF, got %v", cut, len(full), err)
		}
	}
}

// A reader must tolerate records with extra trailing bytes (fields
// appended by a future writer at the same version).
func TestExtraTailBytesSkipped(t *testing.T) {
	rec := Record{Cycle: 5, Router: 2, Kind: KindRoute}
	var payload []byte
	payload = append(payload, byte(rec.Kind))
	payload = append(payload, 5)    // cycle uvarint
	payload = append(payload, 4)    // router zigzag varint (2)
	payload = append(payload, 0)    // flags: no packet
	payload = append(payload, 0xaa) // unknown future field
	buf := AppendHeader(nil, 4)
	buf = append(buf, byte(len(payload)))
	buf = append(buf, payload...)
	r, err := NewReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Errorf("got %+v, want %+v", got, rec)
	}
}
