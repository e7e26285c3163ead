package noc

import (
	"fmt"
	"io"

	"github.com/disco-sim/disco/internal/tracefmt"
)

// Tracer receives structured simulator events. Attach one with
// Network.SetTracer to debug routing, arbitration and DISCO engine
// decisions; the zero-overhead default is no tracer.
type Tracer interface {
	// Event is called with one event as a value record: the cycle, the
	// router (or -1 for NI-level events), the kind and, when a packet is
	// involved, a snapshot of its fields at the event. A record holds no
	// reference into the simulator, so a tracer may keep it.
	Event(rec tracefmt.Record)
}

// SetTracer attaches t (nil detaches).
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// trace records the event in the packet's lifetime record and, if a
// tracer is attached, emits it as a record.
func (n *Network) trace(router int, kind tracefmt.Kind, pkt *Packet) {
	if pkt != nil {
		pkt.Life.observe(kind, n.Cycle)
	}
	if n.tracer == nil {
		return
	}
	rec := tracefmt.Record{Cycle: n.Cycle, Router: router, Kind: kind}
	if pkt != nil {
		var flags uint8
		if pkt.Compressed {
			flags |= tracefmt.PFCompressed
		}
		if pkt.Compressible {
			flags |= tracefmt.PFCompressible
		}
		if pkt.CompressionFailed {
			flags |= tracefmt.PFFailed
		}
		if pkt.WantCompressedAtDst {
			flags |= tracefmt.PFWantComp
		}
		rec.HasPacket = true
		rec.Pkt = tracefmt.PacketInfo{
			ID:           pkt.ID,
			Src:          pkt.Src,
			Dst:          pkt.Dst,
			Class:        uint8(pkt.Class),
			Flags:        flags,
			Flits:        pkt.FlitCount,
			Hops:         pkt.Hops,
			Conversions:  pkt.Conversions,
			Queueing:     pkt.Queueing,
			EngineCycles: pkt.Life.EngineCycles,
			EngineStall:  pkt.Life.EngineStall,
		}
	}
	n.tracer.Event(rec)
}

// WriterTracer formats events one per line to an io.Writer.
type WriterTracer struct {
	W io.Writer
	// Count tallies emitted events.
	Count uint64
	// Err latches the first write error; once set, later events are
	// dropped (a truncated trace must not masquerade as a complete one).
	Err error
}

// Event implements Tracer.
func (t *WriterTracer) Event(rec tracefmt.Record) {
	if t.Err != nil {
		return
	}
	t.Count++
	if !rec.HasPacket {
		_, t.Err = fmt.Fprintf(t.W, "%8d r%02d %-14s\n", rec.Cycle, rec.Router, rec.Kind)
		return
	}
	p := &rec.Pkt
	form := "raw"
	if p.Compressed() {
		form = "comp"
	}
	_, t.Err = fmt.Fprintf(t.W, "%8d r%02d %-14s pkt=%d %d->%d %s %s flits=%d\n",
		rec.Cycle, rec.Router, rec.Kind, p.ID, p.Src, p.Dst, Class(p.Class), form, p.Flits)
}

// CountingTracer counts events by kind (cheap assertion helper).
type CountingTracer struct {
	Counts map[tracefmt.Kind]uint64
}

// NewCountingTracer returns an empty counter.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{Counts: make(map[tracefmt.Kind]uint64)}
}

// Event implements Tracer.
func (t *CountingTracer) Event(rec tracefmt.Record) {
	t.Counts[rec.Kind]++
}
