package noc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/tracefmt"
)

func TestCountingTracerEventLifecycle(t *testing.T) {
	cfg := discoConfig()
	n := mustNet(t, cfg)
	tr := NewCountingTracer()
	n.SetTracer(tr)
	id := uint64(0)
	for wave := 0; wave < 20; wave++ {
		for src := 0; src < 16; src++ {
			if src == 5 {
				continue
			}
			id++
			n.Inject(NewDataPacket(id, src, 5, compressibleBlock(int64(id)), true))
		}
		n.Step()
	}
	if !n.RunUntilQuiescent(400000) {
		t.Fatal("no drain")
	}
	c := tr.Counts
	if c[tracefmt.KindInject] != id || c[tracefmt.KindEject] != id {
		t.Errorf("inject/eject events %d/%d, want %d", c[tracefmt.KindInject], c[tracefmt.KindEject], id)
	}
	// Every packet is routed at least once per hop; at minimum id times.
	if c[tracefmt.KindRoute] < id {
		t.Errorf("route events %d < packets %d", c[tracefmt.KindRoute], id)
	}
	// Engine lifecycle consistency: starts = done + fail + release.
	starts := c[tracefmt.KindEngineStart]
	ends := c[tracefmt.KindEngineDone] + c[tracefmt.KindEngineFail] + c[tracefmt.KindEngineRelease]
	if starts == 0 {
		t.Fatal("no engine activity under congestion")
	}
	if starts != ends {
		t.Errorf("engine starts %d != completions %d (done=%d fail=%d rel=%d)",
			starts, ends, c[tracefmt.KindEngineDone], c[tracefmt.KindEngineFail], c[tracefmt.KindEngineRelease])
	}
	// Commits never exceed starts.
	if c[tracefmt.KindEngineCommit] > starts {
		t.Error("more commits than starts")
	}
}

func TestWriterTracerFormats(t *testing.T) {
	var sb strings.Builder
	tr := &WriterTracer{W: &sb}
	n := mustNet(t, DefaultConfig())
	n.SetTracer(tr)
	n.Inject(NewControlPacket(1, 0, 3, ClassRequest))
	if !n.RunUntilQuiescent(1000) {
		t.Fatal("no drain")
	}
	out := sb.String()
	if !strings.Contains(out, " inject ") || !strings.Contains(out, " eject ") {
		t.Errorf("inject/eject lines missing:\n%s", out)
	}
	// Record rendering: packet fields come from the snapshot, the kind
	// and class print by name, and packet-less records stop at the kind.
	sb.Reset()
	tr.Event(tracefmt.Record{Cycle: 7, Router: 3, Kind: tracefmt.KindEject, HasPacket: true,
		Pkt: tracefmt.PacketInfo{ID: 9, Src: 1, Dst: 3, Class: uint8(ClassResponse),
			Flags: tracefmt.PFCompressed, Flits: 2}})
	tr.Event(tracefmt.Record{Cycle: 5, Router: 2, Kind: tracefmt.KindBreakerTrip})
	want := "       7 r03 eject          pkt=9 1->3 response comp flits=2\n" +
		"       5 r02 breaker-trip  \n"
	if got := sb.String(); got != want {
		t.Errorf("rendering:\n got %q\nwant %q", got, want)
	}
}

func TestWriterTracerCountMatchesLines(t *testing.T) {
	// Count tallies exactly the emitted events, so it stays an exact
	// record count for the file that was actually written.
	var sb strings.Builder
	tr := &WriterTracer{W: &sb}
	n := mustNet(t, discoConfig())
	n.SetTracer(tr)
	for id := uint64(1); id <= 8; id++ {
		n.Inject(NewDataPacket(id, int(id), 0, compressibleBlock(int64(id)), true))
	}
	if !n.RunUntilQuiescent(10000) {
		t.Fatal("no drain")
	}
	if tr.Count == 0 {
		t.Fatal("no events traced")
	}
	if lines := strings.Count(sb.String(), "\n"); lines != int(tr.Count) {
		t.Errorf("Count %d != %d written lines", tr.Count, lines)
	}
}

// failingWriter errors after limit bytes have been accepted.
type failingWriter struct {
	limit    int
	written  int
	closed   bool
	closeErr error
}

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		return 0, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func (f *failingWriter) Close() error {
	f.closed = true
	return f.closeErr
}

func TestWriterTracerLatchesFirstError(t *testing.T) {
	fw := &failingWriter{limit: 40} // room for one event line, not two
	tr := &WriterTracer{W: fw}
	tr.Event(tracefmt.Record{Cycle: 1, Kind: tracefmt.KindInject})
	if tr.Err != nil {
		t.Fatalf("first event failed unexpectedly: %v", tr.Err)
	}
	tr.Event(tracefmt.Record{Cycle: 2, Kind: tracefmt.KindRoute})
	if !errors.Is(tr.Err, errDiskFull) {
		t.Fatalf("Err = %v, want errDiskFull", tr.Err)
	}
	// Once latched, further events are dropped and the error survives.
	count := tr.Count
	tr.Event(tracefmt.Record{Cycle: 3, Kind: tracefmt.KindEject})
	if tr.Count != count {
		t.Error("event counted after the tracer latched an error")
	}
	if !errors.Is(tr.Err, errDiskFull) {
		t.Error("latched error was overwritten")
	}
}

// headerLen is the size of a BinaryTracer header for a 16-node network.
var headerLen = len(tracefmt.AppendHeader(nil, 16))

func TestBinaryTracerHeaderOnlyCloses(t *testing.T) {
	// Closing a tracer that never saw an event is valid: the header
	// alone, no error, underlying closer still closed.
	fw := &failingWriter{limit: 1 << 20}
	tr := NewBinaryTracer(fw, 16)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close on empty trace: %v", err)
	}
	if fw.written != headerLen {
		t.Errorf("empty trace wrote %d bytes, want the %d-byte header", fw.written, headerLen)
	}
	if !fw.closed {
		t.Error("underlying closer not closed")
	}
}

func TestBinaryTracerFlushesOnClose(t *testing.T) {
	fw := &failingWriter{limit: 1 << 20}
	tr := NewBinaryTracer(fw, 16)
	tr.Event(tracefmt.Record{Cycle: 7, Router: 3, Kind: tracefmt.KindRoute})
	if fw.written != 0 {
		t.Fatal("event bypassed the buffer; buffering is not happening")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fw.written <= headerLen {
		t.Error("Close did not flush the buffered event")
	}
}

func TestBinaryTracerSurfacesFlushError(t *testing.T) {
	fw := &failingWriter{limit: 0} // everything fails at flush time
	tr := NewBinaryTracer(fw, 16)
	tr.Event(tracefmt.Record{Cycle: 7, Router: 3, Kind: tracefmt.KindRoute})
	if err := tr.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want errDiskFull", err)
	}
	if !errors.Is(tr.Err, errDiskFull) {
		t.Error("flush error not latched in Err")
	}
	if !fw.closed {
		t.Error("writer left open after failed flush")
	}
}

func TestBinaryTracerSurfacesCloseError(t *testing.T) {
	fw := &failingWriter{limit: 1 << 20, closeErr: errors.New("close failed")}
	tr := NewBinaryTracer(fw, 16)
	if err := tr.Close(); err == nil || err.Error() != "close failed" {
		t.Fatalf("Close = %v, want close failed", err)
	}
}

func TestBinaryTracerPlainWriter(t *testing.T) {
	// A writer without Close (e.g. bytes.Buffer) is flushed only, and
	// the flushed stream reads back.
	var buf bytes.Buffer
	tr := NewBinaryTracer(&buf, 16)
	want := tracefmt.Record{Cycle: 7, Router: 3, Kind: tracefmt.KindRoute}
	tr.Event(want)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := tracefmt.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Next(); err != nil || got != want {
		t.Errorf("read back %+v, %v; want %+v", got, err, want)
	}
}
