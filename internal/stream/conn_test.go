package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/disco-sim/disco/internal/compress"
)

// pipePair builds a handshaken client/server Conn pair over net.Pipe.
func pipePair(t *testing.T, codec string) (*Conn, *Conn) {
	t.Helper()
	cn, sn := net.Pipe()
	t.Cleanup(func() { _ = cn.Close(); _ = sn.Close() })
	// net.Pipe is synchronous: the two handshake halves must overlap.
	var (
		srv    *Conn
		srvErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, srvErr = Accept(sn, nil)
	}()
	cli, err := Client(cn, codec)
	wg.Wait()
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server handshake: %v", srvErr)
	}
	return cli, srv
}

// testPayload is a deterministic byte stream mixing compressible and
// incompressible spans.
func testPayload(n int) []byte {
	out := make([]byte, n)
	seed := uint64(0xC0FFEE)
	for i := 0; i < n; i += 8 {
		var b [8]byte
		switch (i / 64) % 3 {
		case 0: // drifting counter
			binary.LittleEndian.PutUint64(b[:], uint64(0x1000+i))
		case 1: // zeros
		case 2: // pseudorandom
			seed += 0x9E3779B97F4A7C15
			z := seed
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			binary.LittleEndian.PutUint64(b[:], z^(z>>27))
		}
		copy(out[i:], b[:])
	}
	return out
}

// TestConnRoundTripAllCodecs pushes a mixed payload both directions
// through a pipe pair for every registry codec.
func TestConnRoundTripAllCodecs(t *testing.T) {
	for _, codec := range compress.Names() {
		t.Run(codec, func(t *testing.T) {
			cli, srv := pipePair(t, codec)
			if cli.Codec() != codec || srv.Codec() != codec {
				t.Fatalf("negotiated %q/%q, want %q", cli.Codec(), srv.Codec(), codec)
			}
			payload := testPayload(64*40 + 17) // deliberately not block-aligned

			var wg sync.WaitGroup
			wg.Add(1)
			var echoed []byte
			var echoErr error
			go func() { // server: echo everything, then half-close
				defer wg.Done()
				echoed, echoErr = io.ReadAll(srv)
				if echoErr == nil {
					if _, err := srv.Write(echoed); err != nil {
						echoErr = err
						return
					}
					echoErr = srv.CloseWrite()
				}
			}()

			// Client: write in awkward chunk sizes, half-close, read back.
			for off := 0; off < len(payload); {
				n := min(97, len(payload)-off)
				if _, err := cli.Write(payload[off : off+n]); err != nil {
					t.Fatalf("write: %v", err)
				}
				off += n
			}
			if err := cli.CloseWrite(); err != nil {
				t.Fatalf("close-write: %v", err)
			}
			back, err := io.ReadAll(cli)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			wg.Wait()
			if echoErr != nil {
				t.Fatalf("server echo: %v", echoErr)
			}
			if !bytes.Equal(echoed, payload) {
				t.Fatalf("server received corrupted payload")
			}
			if !bytes.Equal(back, payload) {
				t.Fatalf("client read back corrupted payload")
			}
		})
	}
}

// TestConnPartialWriteVisible: a sub-block Write must reach the peer
// without waiting for more bytes (the zero-padded partial frame).
func TestConnPartialWriteVisible(t *testing.T) {
	cli, srv := pipePair(t, "delta")
	msg := []byte("hello, disco")
	go func() { _, _ = cli.Write(msg) }()
	buf := make([]byte, 64)
	n, err := srv.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("got %q, want %q", buf[:n], msg)
	}
}

// TestConnWriteAfterCloseWrite must fail with ErrClosed.
func TestConnWriteAfterCloseWrite(t *testing.T) {
	cli, srv := pipePair(t, "none")
	go func() {
		_, _ = io.Copy(io.Discard, srv)
	}()
	if err := cli.CloseWrite(); err != nil {
		t.Fatalf("close-write: %v", err)
	}
	if _, err := cli.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after CloseWrite: %v, want ErrClosed", err)
	}
	if err := cli.CloseWrite(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double CloseWrite: %v, want ErrClosed", err)
	}
}

// TestConnEOFAfterHalfClose: the reader drains buffered blocks, then
// sees io.EOF, and keeps seeing it.
func TestConnEOFAfterHalfClose(t *testing.T) {
	cli, srv := pipePair(t, "fpc")
	payload := testPayload(200)
	go func() {
		_, _ = cli.Write(payload)
		_ = cli.CloseWrite()
	}()
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("drained payload corrupt")
	}
	if _, err := srv.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("post-EOF read: %v, want io.EOF", err)
	}
}

// rawFramePeer handshakes as a client over a pipe and then lets the
// test inject raw frame bytes at the server's Conn.
func rawFramePeer(t *testing.T) (raw net.Conn, srv *Conn) {
	t.Helper()
	cn, sn := net.Pipe()
	t.Cleanup(func() { _ = cn.Close(); _ = sn.Close() })
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, srvErr = Accept(sn, nil)
	}()
	if err := writeHello(cn, "delta"); err != nil {
		t.Fatal(err)
	}
	if err := readReply(cn, "delta"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return cn, srv
}

// TestConnMalformedFrames drives every frame-validation branch: the
// read side must fail with ErrProtocol (and stay failed), never panic
// or read unbounded bytes.
func TestConnMalformedFrames(t *testing.T) {
	mk := func(mode byte, n byte, sizeBits, plen uint16, payload []byte) []byte {
		var hdr [frameHeaderLen]byte
		hdr[0], hdr[1] = mode, n
		binary.LittleEndian.PutUint16(hdr[2:], sizeBits)
		binary.LittleEndian.PutUint16(hdr[4:], plen)
		return append(hdr[:], payload...)
	}
	cases := map[string][]byte{
		"unknown-mode":      mk(7, 1, 8, 1, []byte{0}),
		"zero-block-bytes":  mk(byte(compress.ModeStored), 0, 512, 64, make([]byte, 64)),
		"oversize-block":    mk(byte(compress.ModeStored), 65, 512, 64, make([]byte, 64)),
		"oversize-payload":  mk(byte(compress.ModeStored), 64, 512, 65, make([]byte, 65)),
		"zero-payload":      mk(byte(compress.ModeDirect), 64, 8, 0, nil),
		"oversize-sizebits": mk(byte(compress.ModeDirect), 64, 513, 8, make([]byte, 8)),
		"zero-sizebits":     mk(byte(compress.ModeDirect), 64, 0, 8, make([]byte, 8)),
		"stored-wrong-len":  mk(byte(compress.ModeStored), 64, 512, 10, make([]byte, 10)),
		"residual-no-base":  mk(byte(compress.ModeResidual), 64, 80, 10, make([]byte, 10)),
		"garbage-direct":    mk(byte(compress.ModeDirect), 64, 300, 37, bytes.Repeat([]byte{0xFF}, 37)),
		"close-with-fields": mk(frameClose, 1, 0, 0, nil),
		"truncated-header":  {0x00, 0x01},
		"truncated-payload": mk(byte(compress.ModeStored), 64, 512, 64, make([]byte, 20)),
	}
	for name, wire := range cases {
		t.Run(name, func(t *testing.T) {
			raw, srv := rawFramePeer(t)
			go func() {
				_, _ = raw.Write(wire)
				_ = raw.Close() // for the truncation cases
			}()
			_, err := srv.Read(make([]byte, 64))
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("got %v, want ErrProtocol", err)
			}
			// The failure latches.
			if _, err2 := srv.Read(make([]byte, 64)); !errors.Is(err2, ErrProtocol) {
				t.Fatalf("second read: %v, want latched ErrProtocol", err2)
			}
		})
	}
}

// TestConnAbruptClose: the peer vanishing without a close frame
// surfaces as an error (EOF at a frame boundary), not a hang.
func TestConnAbruptClose(t *testing.T) {
	raw, srv := rawFramePeer(t)
	_ = raw.Close()
	if _, err := srv.Read(make([]byte, 8)); err == nil {
		t.Fatalf("read after abrupt close returned no error")
	}
}

// TestConnLargeTransfer streams 1 MiB both ways to shake out any
// state desync that only appears after many retrain/base cycles.
func TestConnLargeTransfer(t *testing.T) {
	cli, srv := pipePair(t, "delta")
	payload := testPayload(1 << 20)
	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	var readErr error
	go func() {
		defer wg.Done()
		got, readErr = io.ReadAll(srv)
	}()
	if _, err := cli.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("1 MiB transfer corrupted")
	}
}

// TestConnDeadlinePropagates: deadlines on the wrapped conn bound
// blocked Reads (never-hangs at the data layer too).
func TestConnDeadlinePropagates(t *testing.T) {
	cli, _ := pipePair(t, "none")
	if err := cli.NetConn().SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Read(make([]byte, 8))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("got %v, want a timeout", err)
	}
}

// tcpPair builds a handshaken client/server Conn pair over a real TCP
// loopback connection.
func tcpPair(t *testing.T, codec string) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		c   *Conn
		err error
	}
	accepted := make(chan result, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			accepted <- result{nil, err}
			return
		}
		t.Cleanup(func() { _ = nc.Close() })
		c, err := Accept(nc, nil)
		accepted <- result{c, err}
	}()
	cn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cn.Close() })
	cli, err := Client(cn, codec)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-accepted
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	return cli, r.c
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestConnEchoAllocs is the runtime gate behind Conn's hotalloc roots:
// a TCP loopback client echoing one 64-byte block at a time through
// the server's echo loop, both ends in this process, allocates nothing
// per round trip once
// warmed up on blocks whose words are already in the codec histogram —
// four Stateful passes (client encode, server decode, server encode,
// client decode) plus the framing, for every codec. One AllocsPerRun
// covers a whole batch of round trips (two SC²/FVC retrains included),
// so the result is the batch's exact allocation count.
func TestConnEchoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	payload := testPayload(64 * 24)
	const batch = 600
	for _, codec := range compress.Names() {
		t.Run(codec, func(t *testing.T) {
			cli, srv := tcpPair(t, codec)
			done := make(chan error, 1)
			go func() { done <- echo(srv) }()
			var back [compress.BlockSize]byte
			next := 0
			var bad error
			roundTrip := func() {
				blk := payload[(next%24)*64 : (next%24+1)*64]
				next++
				if _, err := cli.Write(blk); err != nil {
					bad = err
					return
				}
				if _, err := io.ReadFull(cli, back[:]); err != nil {
					bad = err
					return
				}
				if !bytes.Equal(back[:], blk) && bad == nil {
					bad = errors.New("echo mismatch")
				}
			}
			for i := 0; i < 2*256; i++ { // two retrain periods of warm-up
				roundTrip()
			}
			allocs := testing.AllocsPerRun(1, func() {
				for range batch {
					roundTrip()
				}
			})
			if bad != nil {
				t.Fatal(bad)
			}
			if err := cli.CloseWrite(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %.0f allocs over %d round trips", codec, allocs, batch)
			if allocs != 0 {
				t.Fatalf("%s: %.0f allocs over %d 64-byte round trips, want 0", codec, allocs, batch)
			}
		})
	}
}

// TestConnConcurrentEcho runs one writer and one reader on the same
// client Conn at once, against the server's echo loop: the
// two directions decode and encode out of separate Stateful scratch,
// which `go test -race` checks, and every echoed byte must match.
func TestConnConcurrentEcho(t *testing.T) {
	payload := testPayload(64 * 300)
	for _, codec := range []string{"delta", "cpack", "sc2", "none"} {
		t.Run(codec, func(t *testing.T) {
			cli, srv := tcpPair(t, codec)
			srvDone := make(chan error, 1)
			go func() { srvDone <- echo(srv) }()
			writeDone := make(chan error, 1)
			go func() {
				for off := 0; off < len(payload); off += compress.BlockSize {
					if _, err := cli.Write(payload[off : off+compress.BlockSize]); err != nil {
						writeDone <- err
						return
					}
				}
				writeDone <- cli.CloseWrite()
			}()
			back, err := io.ReadAll(cli)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if err := <-writeDone; err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := <-srvDone; err != nil {
				t.Fatalf("server: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatalf("concurrent echo corrupted the stream")
			}
		})
	}
}
