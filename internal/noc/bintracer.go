package noc

import (
	"bufio"
	"io"

	"github.com/disco-sim/disco/internal/tracefmt"
)

// BinaryTracer writes events in the compact binary trace format of
// internal/tracefmt — the right tracer for long runs, where text traces
// grow unbounded. Eject records carry the packet's final latency
// breakdown counters, so cmd/discotrace can reconstruct per-packet
// queue/serialization/engine components and the overlap ratio offline.
//
// Like WriterTracer it latches the first write error and drops later
// events: a truncated trace must not masquerade as a complete one.
type BinaryTracer struct {
	w      *bufio.Writer
	closer io.Closer
	buf    []byte

	// Count tallies emitted records.
	Count uint64
	// Err latches the first write error.
	Err error
}

// NewBinaryTracer wraps w and writes the format header for a network of
// nodes nodes (use net.Config().Nodes(); 0 when unknown). When w is
// also an io.Closer (e.g. an *os.File), Close closes it after flushing.
func NewBinaryTracer(w io.Writer, nodes int) *BinaryTracer {
	t := &BinaryTracer{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	_, t.Err = t.w.Write(tracefmt.AppendHeader(nil, nodes))
	return t
}

// Event implements Tracer.
func (t *BinaryTracer) Event(rec tracefmt.Record) {
	if t.Err != nil {
		return
	}
	t.buf = tracefmt.AppendRecord(t.buf[:0], &rec)
	if _, err := t.w.Write(t.buf); err != nil {
		t.Err = err
		return
	}
	t.Count++
}

// Close flushes buffered records and closes the underlying writer when
// it is a Closer. The first error (tracing, flushing or closing) is
// returned and latched in Err.
func (t *BinaryTracer) Close() error {
	err := t.w.Flush()
	if t.closer != nil {
		if cerr := t.closer.Close(); err == nil {
			err = cerr
		}
	}
	if t.Err == nil {
		t.Err = err
	}
	return t.Err
}
