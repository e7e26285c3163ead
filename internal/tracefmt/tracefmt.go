// Package tracefmt defines the simulator's compact binary trace format
// and its reader. Text traces (noc.WriterTracer) are convenient for
// eyeballing short runs but unbounded for long ones; the binary format
// stores the same event stream — plus the per-packet latency breakdown
// on ejection — in length-prefixed varint records that cmd/discotrace
// analyzes offline.
//
// Layout:
//
//	header:  magic "DTRC" | uvarint version | uvarint nodes
//	record:  uvarint payloadLen | payload
//	payload: kind byte | uvarint cycle | varint router |
//	         flags byte (bit0: packet present) | packet fields
//	packet:  uvarint id | uvarint src | uvarint dst | class byte |
//	         pflags byte | uvarint flits | uvarint hops |
//	         uvarint conversions | uvarint queueing |
//	         uvarint engineCycles | uvarint engineStall
//
// Records are length-prefixed so a reader can skip payload bytes it
// does not understand: fields may be appended in future versions
// without breaking old readers, and readers treat a truncated packet
// tail as zero values (forward and backward compatible).
//
// The writer lives in internal/noc (BinaryTracer), which imports this
// package for the encoding; this package imports nothing from the
// simulator, so analysis tools stay decoupled from simulation code.
package tracefmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic is the 4-byte file signature.
const Magic = "DTRC"

// Version is the current format version.
const Version = 1

// maxRecordLen bounds one record payload; a larger length prefix means
// a corrupt or misaligned file.
const maxRecordLen = 1 << 16

// Kind is a simulator event kind: the one vocabulary shared by the
// tracers, the packet Lifetime stamps (internal/noc) and the trace
// readers. Codes are stable wire values; String gives the names the text
// tracer prints.
type Kind uint8

// Event kind codes (wire values — append only).
const (
	KindInvalid       Kind = iota
	KindInject             // packet entered an NI queue
	KindEject              // packet fully delivered
	KindRoute              // RC computed an output port
	KindVAGrant            // downstream VC allocated
	KindSAGrant            // first flit crossed the switch
	KindEngineStart        // DISCO job started (pending)
	KindEngineCommit       // shadow dropped, job committed
	KindEngineDone         // transform applied
	KindEngineRelease      // shadow released (mis-prediction)
	KindEngineFail         // incompressible content

	// Fault-injection and resilience events (internal/fault; emitted only
	// when an injector is armed, so fault-free traces are unchanged).
	KindEngineFault  // injected engine fault (stuck-busy abort)
	KindBreakerTrip  // engine circuit breaker opened (bypass)
	KindBreakerArm   // breaker cooldown elapsed; engine re-enabled
	KindPayloadFlip  // injected bit-flip in a compressed payload
	KindFaultRecover // corrupt payload recovered via the original
	KindCreditDrop   // injected credit loss on a link
	KindStall        // watchdog diagnostic (in-flight packet dump)
	numKinds
)

var kindNames = [numKinds]string{
	KindInvalid:       "invalid",
	KindInject:        "inject",
	KindEject:         "eject",
	KindRoute:         "route",
	KindVAGrant:       "va-grant",
	KindSAGrant:       "sa-grant",
	KindEngineStart:   "engine-start",
	KindEngineCommit:  "engine-commit",
	KindEngineDone:    "engine-done",
	KindEngineRelease: "engine-release",
	KindEngineFail:    "engine-fail",
	KindEngineFault:   "engine-fault",
	KindBreakerTrip:   "breaker-trip",
	KindBreakerArm:    "breaker-rearm",
	KindPayloadFlip:   "payload-flip",
	KindFaultRecover:  "fault-recover",
	KindCreditDrop:    "credit-drop",
	KindStall:         "stall",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet flag bits.
const (
	PFCompressed   = 1 << 0
	PFCompressible = 1 << 1
	PFFailed       = 1 << 2
	PFWantComp     = 1 << 3
)

// PacketInfo is the per-packet slice of a record. The latency fields
// (Queueing, EngineCycles, EngineStall) are cumulative counters and are
// final only on KindEject records.
type PacketInfo struct {
	ID    uint64
	Src   int
	Dst   int
	Class uint8
	Flags uint8 // PF* bits
	Flits int

	Hops         int
	Conversions  int
	Queueing     uint64
	EngineCycles uint64
	EngineStall  uint64
}

// Compressed reports the PFCompressed bit.
func (p *PacketInfo) Compressed() bool { return p.Flags&PFCompressed != 0 }

// Compressible reports the PFCompressible bit.
func (p *PacketInfo) Compressible() bool { return p.Flags&PFCompressible != 0 }

// Record is one trace event.
type Record struct {
	Cycle     uint64
	Router    int // -1 for NI-level events
	Kind      Kind
	HasPacket bool
	Pkt       PacketInfo
}

// LatencyBreakdown splits a delivered packet's inject→eject latency
// into its three components (all in cycles):
//
//	Serialization — head pipeline traversal, link hops and flit
//	                streaming: Total minus all recorded stall cycles;
//	Queue         — stall cycles from contention and backpressure
//	                (lost arbitration, exhausted credits);
//	Engine        — stall cycles attributable solely to a DISCO engine
//	                lock (the exposed part of the transform latency).
//
// EngineBusy is the total engine service time spent on the packet and
// EngineHidden the part of it that coincided with cycles the packet
// could not have moved anyway — the overlap the paper's scheduling is
// designed to maximize.
type LatencyBreakdown struct {
	Total         uint64
	Queue         uint64
	Engine        uint64
	Serialization uint64

	EngineBusy   uint64
	EngineHidden uint64
}

// SplitLatency computes the breakdown of a packet delivered total
// cycles after injection from its cumulative stall counters (the
// PacketInfo fields of the same names). A wormhole packet spread over
// several routers can accrue stall cycles at more than one of them in
// the same cycle, so the stalls are clamped to the latency, and the
// engine-exposed stalls to the stalls, before splitting.
func SplitLatency(total, queueing, engineCycles, engineStall uint64) LatencyBreakdown {
	stall := min(queueing, total)
	engine := min(engineStall, stall)
	hidden := uint64(0)
	if engineCycles > engineStall {
		hidden = engineCycles - engineStall
	}
	return LatencyBreakdown{
		Total:         total,
		Queue:         stall - engine,
		Engine:        engine,
		Serialization: total - stall,
		EngineBusy:    engineCycles,
		EngineHidden:  hidden,
	}
}

// AppendHeader appends the file header to buf.
func AppendHeader(buf []byte, nodes int) []byte {
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(nodes))
	return buf
}

// AppendRecord appends one length-prefixed record to buf. The payload
// is staged on the stack (at most 114 bytes: eleven varints and four
// bytes), so appending to a reused buf allocates nothing.
func AppendRecord(buf []byte, rec *Record) []byte {
	var stage [128]byte
	p := append(stage[:0], byte(rec.Kind))
	p = binary.AppendUvarint(p, rec.Cycle)
	p = binary.AppendVarint(p, int64(rec.Router))
	var flags byte
	if rec.HasPacket {
		flags |= 1
	}
	p = append(p, flags)
	if rec.HasPacket {
		pk := &rec.Pkt
		p = binary.AppendUvarint(p, pk.ID)
		p = binary.AppendUvarint(p, uint64(pk.Src))
		p = binary.AppendUvarint(p, uint64(pk.Dst))
		p = append(p, pk.Class, pk.Flags)
		p = binary.AppendUvarint(p, uint64(pk.Flits))
		p = binary.AppendUvarint(p, uint64(pk.Hops))
		p = binary.AppendUvarint(p, uint64(pk.Conversions))
		p = binary.AppendUvarint(p, pk.Queueing)
		p = binary.AppendUvarint(p, pk.EngineCycles)
		p = binary.AppendUvarint(p, pk.EngineStall)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

// Reader decodes a binary trace stream.
type Reader struct {
	br      *bufio.Reader
	version uint64
	nodes   int
	scratch []byte
}

// NewReader wraps r and consumes the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("tracefmt: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("tracefmt: bad magic %q (not a binary trace?)", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tracefmt: reading version: %w", err)
	}
	if version == 0 || version > Version {
		return nil, fmt.Errorf("tracefmt: unsupported version %d (have %d)", version, Version)
	}
	nodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tracefmt: reading node count: %w", err)
	}
	return &Reader{br: br, version: version, nodes: int(nodes)}, nil
}

// Version returns the stream's format version.
func (r *Reader) Version() int { return int(r.version) }

// Nodes returns the network node count recorded in the header (0 when
// the writer did not know it).
func (r *Reader) Nodes() int { return r.nodes }

// Next decodes the next record. It returns io.EOF cleanly at the end of
// the stream and io.ErrUnexpectedEOF on truncation mid-record.
func (r *Reader) Next() (Record, error) {
	var rec Record
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return rec, io.EOF
		}
		return rec, fmt.Errorf("tracefmt: reading record length: %w", err)
	}
	if n == 0 || n > maxRecordLen {
		return rec, fmt.Errorf("tracefmt: implausible record length %d", n)
	}
	if cap(r.scratch) < int(n) {
		r.scratch = make([]byte, n)
	}
	p := r.scratch[:n]
	if _, err := io.ReadFull(r.br, p); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return rec, fmt.Errorf("tracefmt: reading record body: %w", err)
	}
	d := decoder{buf: p}
	rec.Kind = Kind(d.byte())
	rec.Cycle = d.uvarint()
	rec.Router = int(d.varint())
	flags := d.byte()
	if flags&1 != 0 {
		rec.HasPacket = true
		pk := &rec.Pkt
		pk.ID = d.uvarint()
		pk.Src = int(d.uvarint())
		pk.Dst = int(d.uvarint())
		pk.Class = d.byte()
		pk.Flags = d.byte()
		pk.Flits = int(d.uvarint())
		pk.Hops = int(d.uvarint())
		pk.Conversions = int(d.uvarint())
		pk.Queueing = d.uvarint()
		pk.EngineCycles = d.uvarint()
		pk.EngineStall = d.uvarint()
	}
	if d.bad {
		return rec, fmt.Errorf("tracefmt: corrupt record at cycle %d", rec.Cycle)
	}
	return rec, nil
}

// decoder walks one record payload. Running off the end of the payload
// yields zero values with bad unset ONLY when the payload ended exactly
// on a field boundary (shorter records from older writers); a varint
// cut mid-field sets bad.
type decoder struct {
	buf []byte
	bad bool
}

func (d *decoder) byte() byte {
	if len(d.buf) == 0 {
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if len(d.buf) == 0 {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.bad = true
		d.buf = nil
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if len(d.buf) == 0 {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.bad = true
		d.buf = nil
		return 0
	}
	d.buf = d.buf[n:]
	return v
}
