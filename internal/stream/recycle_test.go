package stream

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/disco-sim/disco/internal/compress"
)

// pipeServer serves, as discod's serveConn does, one stream on each
// net.Conn sent on conns — handshake, echo, release — and reports its
// result on done. One goroutine serves every stream, so a stream cycle
// starts none.
type pipeServer struct {
	conns chan net.Conn
	done  chan error
}

func startPipeServer(t *testing.T) *pipeServer {
	ps := &pipeServer{conns: make(chan net.Conn), done: make(chan error)}
	go func() {
		for sn := range ps.conns {
			ps.done <- func() error {
				defer func() { _ = sn.Close() }()
				c, err := Accept(sn, nil)
				if err != nil {
					return err
				}
				defer c.release()
				return echo(c)
			}()
		}
	}()
	t.Cleanup(func() { close(ps.conns) })
	return ps
}

// rttCycle is one whole stream on both ends over net.Pipe, as a
// closed-loop client runs it against discod: handshake, one 64-byte
// block echoed at a time, half-closes, Close on the client and release
// on the server.
func (ps *pipeServer) rttCycle(codec string, payload []byte) error {
	cn, sn := net.Pipe()
	ps.conns <- sn
	err := func() error {
		defer func() { _ = cn.Close() }()
		c, err := Client(cn, codec)
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		var back [compress.BlockSize]byte
		for off := 0; off < len(payload); off += compress.BlockSize {
			blk := payload[off : off+compress.BlockSize]
			if _, err := c.Write(blk); err != nil {
				return err
			}
			if _, err := io.ReadFull(c, back[:]); err != nil {
				return err
			}
			if !bytes.Equal(back[:], blk) {
				return errors.New("echo mismatch")
			}
		}
		if err := c.CloseWrite(); err != nil {
			return err
		}
		if _, err := c.Read(back[:1]); err != io.EOF {
			return errors.New("no half-close after the echo")
		}
		return nil
	}()
	if serr := <-ps.done; err == nil {
		err = serr
	}
	return err
}

// TestConnCycleAllocs gates what a whole stream costs once the pools
// hold a stream's state: after one warm-up stream per codec, a full
// open → 1024 blocks → close cycle on both ends allocates only for the
// pipe, the handshake and the client's Conn — no codec state, no
// buffers, no server Conn. AllocsPerRun averages four cycles and
// truncates, so one stray runtime allocation among them does not move
// the count, while one more per cycle does. Collection is off during
// the count, and one P keeps every pooled object within reach of the
// next Get.
func TestConnCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// The bound is the count recorded when the pools went in: the pipe
	// and its deadline timers, the handshake messages, and the client's
	// Conn struct (the server's goes back to the pool, the client's
	// stays with its caller). Before the pools a cycle built both ends'
	// Stateful pairs and regrew every SC²/FVC histogram and table: 42
	// allocations for a stateless codec, 303 for sc2 and 243 for fvc.
	const bound = 29
	payload := testPayload(1024 * compress.BlockSize)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ps := startPipeServer(t)
	for _, codec := range compress.Names() {
		if err := ps.rttCycle(codec, payload); err != nil {
			t.Fatalf("%s warm-up: %v", codec, err)
		}
	}
	for _, codec := range compress.Names() {
		var bad error
		allocs := testing.AllocsPerRun(4, func() {
			if err := ps.rttCycle(codec, payload); err != nil && bad == nil {
				bad = err
			}
		})
		if bad != nil {
			t.Fatalf("%s: %v", codec, bad)
		}
		t.Logf("%s: %.0f allocs per open → 1024 blocks → close cycle", codec, allocs)
		if allocs > bound {
			t.Errorf("%s: %.0f allocs per stream cycle, want at most %d", codec, allocs, bound)
		}
	}
}

// TestConnCloseRecycles: Close recycles the state of a stream finished
// both ways, and keeps the state of one that is not. Either way the
// Conn answers later calls with the latched error or ErrClosed.
func TestConnCloseRecycles(t *testing.T) {
	t.Run("finished", func(t *testing.T) {
		cli, srv := pipePair(t, "sc2")
		go func() { _ = echo(srv) }()
		payload := testPayload(64 * 300)
		echoStream(t, cli, payload, []int{64, 4096})
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		if cli.state != nil || cli.bufs != nil || cli.enc != nil || cli.dec != nil {
			t.Fatal("Close kept the state of a stream finished both ways")
		}
		if _, err := cli.Read(make([]byte, 64)); err != io.EOF {
			t.Fatalf("Read after the recycling Close: %v, want io.EOF", err)
		}
		if _, err := cli.Write(payload[:64]); !errors.Is(err, ErrClosed) {
			t.Fatalf("Write after the recycling Close: %v, want ErrClosed", err)
		}
		if err := cli.CloseWrite(); !errors.Is(err, ErrClosed) {
			t.Fatalf("CloseWrite after the recycling Close: %v, want ErrClosed", err)
		}
		_ = cli.Close() // a second Close releases nothing twice
	})
	t.Run("write-open", func(t *testing.T) {
		cli, srv := pipePair(t, "fvc")
		go func() { _, _ = io.Copy(io.Discard, srv) }()
		if _, err := cli.Write(testPayload(64 * 4)); err != nil {
			t.Fatal(err)
		}
		_ = cli.Close()
		if cli.state == nil {
			t.Fatal("Close recycled a stream whose write side was still open")
		}
		if _, err := cli.Read(make([]byte, 64)); err == nil {
			t.Fatal("Read after Close succeeded")
		}
	})
}

// TestConnCloseRacesBlockedRead: a Close that meets a Read blocked on
// the connection leaves the state alone, although the Read latches an
// error as soon as the connection closes: Close looks before it closes,
// while the Read still holds the read lock.
func TestConnCloseRacesBlockedRead(t *testing.T) {
	cli, srv := pipePair(t, "sc2")
	srvRead := make(chan error, 1)
	go func() {
		_, err := srv.Read(make([]byte, 1))
		srvRead <- err
	}()
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := <-srvRead; err != io.EOF {
		t.Fatalf("server read: %v, want io.EOF", err)
	}
	var b [1]byte
	readDone := make(chan error, 1)
	go func() {
		_, err := cli.Read(b[:]) // the server never writes: blocks
		readDone <- err
	}()
	// Wait until the Read holds the read lock.
	for cli.rmu.TryLock() {
		cli.rmu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-readDone; err == nil {
		t.Fatal("the blocked Read returned no error after Close")
	}
	if cli.state == nil {
		t.Fatal("Close recycled the state while a Read was in flight")
	}
}

// TestServerRecycledStateMatchesFresh: a stream drawing codec state the
// server and the client recycled from a 16384-block stream sends, in
// both directions, exactly the frames of a fresh encoder. Collection is
// off so the pools keep what the long stream released, and one P puts
// both released pairs within reach of the short stream's two draws.
func TestServerRecycledStateMatchesFresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	taps := make(chan *tapConn, 1)
	srv := serveOn(t, Options{}, tapListener{Listener: ln, taps: taps})
	addr := ln.Addr().String()
	long := testPayload(16384 * compress.BlockSize)
	short := testPayload(1024*compress.BlockSize + 4*compress.BlockSize)[4*compress.BlockSize:]
	for _, codec := range compress.Names() {
		c, _ := dialTap(t, addr, codec, taps)
		echoStream(t, c, long, []int{4096})
		_ = c.Close()
		for deadline := time.Now().Add(5 * time.Second); srv.ActiveConns() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the long stream's server side never finished", codec)
			}
		}

		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nc.Close() })
		cliTap := &tapConn{Conn: nc}
		c, err = Client(cliTap, codec)
		if err != nil {
			t.Fatal(err)
		}
		srvTap := <-taps
		echoStream(t, c, short, []int{64, 4096})
		want := freshFrames(codec, short)
		if got := cliTap.sent()[len(magic)+2+len(codec):]; !bytes.Equal(got, want) {
			t.Errorf("%s: the recycled client sent %d bytes that differ from a fresh encoder's %d", codec, len(got), len(want))
		}
		if got := srvTap.sent()[replyLen(codec):]; !bytes.Equal(got, want) {
			t.Errorf("%s: the recycled server sent %d bytes that differ from a fresh encoder's %d", codec, len(got), len(want))
		}
		_ = c.Close()
	}
}

// freshFrames is the wire a new encoder makes of payload (whole blocks),
// ending with the half-close.
func freshFrames(codec string, payload []byte) []byte {
	alg, _ := compress.New(codec)
	enc := compress.NewStateful(alg)
	var out []byte
	var hdr [frameHeaderLen]byte
	for off := 0; off < len(payload); off += compress.BlockSize {
		sb := enc.Encode(payload[off : off+compress.BlockSize])
		putFrameHeader(&hdr, byte(sb.Mode), compress.BlockSize, sb.SizeBits, len(sb.Payload))
		out = append(append(out, hdr[:]...), sb.Payload...)
	}
	putFrameHeader(&hdr, frameClose, 0, 0, 0)
	return append(out, hdr[:]...)
}
