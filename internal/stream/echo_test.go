package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disco-sim/disco/internal/compress"
)

// tapConn records what the server writes to one connection: the count
// of Write calls and every byte, the handshake reply included.
type tapConn struct {
	net.Conn
	writes atomic.Int64
	mu     sync.Mutex
	out    bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sent returns a copy of every byte written so far.
func (c *tapConn) sent() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.out.Bytes())
}

// tapListener hands each accepted conn to the test as a tapConn.
type tapListener struct {
	net.Listener
	taps chan *tapConn
}

func (l tapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: nc}
	l.taps <- tc
	return tc, nil
}

// startTapServer boots a Server whose accepted conns are tapped; the
// test receives each one from taps after dialing.
func startTapServer(t *testing.T) (addr string, taps <-chan *tapConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ch := make(chan *tapConn, 1)
	serveOn(t, Options{}, tapListener{Listener: ln, taps: ch})
	return ln.Addr().String(), ch
}

// dialTap dials addr, handshakes codec and returns the client Conn with
// the server side's tap. The handshake reply has been written when it
// returns.
func dialTap(t *testing.T, addr, codec string, taps <-chan *tapConn) (*Conn, *tapConn) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	c, err := Client(nc, codec)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := nc.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c, <-taps
}

// replyLen is the size of the server's accepting handshake reply.
func replyLen(codec string) int { return len(magic) + 3 + len(codec) }

// echoStream writes payload to c in the given chunk sizes (cycling),
// half-closes, and checks that the echo read back concurrently matches.
func echoStream(t *testing.T, c *Conn, payload []byte, chunks []int) {
	t.Helper()
	var back []byte
	readErr := make(chan error, 1)
	go func() {
		b, err := io.ReadAll(c)
		back = b
		readErr <- err
	}()
	for off, i := 0, 0; off < len(payload); i++ {
		n := min(chunks[i%len(chunks)], len(payload)-off)
		if _, err := c.Write(payload[off : off+n]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
		off += n
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatalf("close-write: %v", err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("echo corrupted: got %d bytes, want %d", len(back), len(payload))
	}
}

// echoWireDigest pins the server's outbound frames, after the
// handshake, for a fixed client write pattern over every codec. The
// pattern mixes whole blocks, 4 KiB writes and partial blocks (as
// discoload does), over enough blocks for two SC²/FVC retrains. The
// digest was taken from the one-block-per-Read echo; batching Reads
// must not change a byte the server sends.
const echoWireDigest = "3873a9bf5e63d06729f708508255ed289c94ef07871d494a200f3e96929c26b4"

func TestServerEchoWireDigest(t *testing.T) {
	addr, taps := startTapServer(t)
	payload := testPayload(64*600 + 13)
	chunks := []int{64, 4096, 24, 64, 160, 4096, 100, 17}
	h := sha256.New()
	for _, codec := range compress.Names() {
		c, tap := dialTap(t, addr, codec, taps)
		echoStream(t, c, payload, chunks)
		wire := tap.sent()[replyLen(codec):]
		t.Logf("%s: %d wire bytes", codec, len(wire))
		h.Write([]byte(codec))
		h.Write(wire)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != echoWireDigest {
		t.Fatalf("echo wire digest %s, want %s", got, echoWireDigest)
	}
}

// TestServerEchoBatchesWrites: a bulk stream's echo moves several
// buffered blocks per server write, and a closed-loop stream, which
// never has a second block buffered, still gets one write per block.
func TestServerEchoBatchesWrites(t *testing.T) {
	addr, taps := startTapServer(t)

	t.Run("bulk", func(t *testing.T) {
		const blocks = 16384
		c, tap := dialTap(t, addr, "delta", taps)
		before := tap.writes.Load()
		echoStream(t, c, testPayload(blocks*compress.BlockSize), []int{4096})
		writes := tap.writes.Load() - before
		t.Logf("%d server writes for %d blocks", writes, blocks)
		if writes > blocks/8 {
			t.Fatalf("%d server writes for %d blocks, want at most one per 8 blocks", writes, blocks)
		}
	})

	t.Run("closed-loop", func(t *testing.T) {
		const blocks = 300
		c, tap := dialTap(t, addr, "delta", taps)
		before := tap.writes.Load()
		payload := testPayload(blocks * compress.BlockSize)
		var back [compress.BlockSize]byte
		for off := 0; off < len(payload); off += compress.BlockSize {
			blk := payload[off : off+compress.BlockSize]
			if _, err := c.Write(blk); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := io.ReadFull(c, back[:]); err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(back[:], blk) {
				t.Fatalf("echo mismatch at byte %d", off)
			}
		}
		if got := tap.writes.Load() - before; got != blocks {
			t.Fatalf("%d server writes for %d closed-loop blocks, want one per block", got, blocks)
		}
		if err := c.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(back[:]); err != io.EOF {
			t.Fatalf("after close-write: %v, want io.EOF", err)
		}
	})
}

// storedFrame is a raw stored-mode frame carrying n bytes of fill (the
// block zero-padded to 64, as Write pads it).
func storedFrame(n int, fill byte) []byte {
	var hdr [frameHeaderLen]byte
	putFrameHeader(&hdr, byte(compress.ModeStored), n, 8*compress.BlockSize, compress.BlockSize)
	blk := make([]byte, compress.BlockSize)
	copy(blk, bytes.Repeat([]byte{fill}, n))
	return append(hdr[:], blk...)
}

// TestConnReadBatches drives Read's batching rules with raw frames over
// a synchronous pipe, where every wire chunk is one buffer fill. A Read
// that blocked where it must not would fail on the read deadline
// instead of hanging.
func TestConnReadBatches(t *testing.T) {
	full := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, compress.BlockSize) }
	type step struct {
		wire []byte // written before the read (nil: nothing new)
		buf  int    // len(p)
		want []byte
		err  error // want errors.Is(err, this); nil wants no error
	}
	third := storedFrame(64, 3)
	garbage := []byte{7, 1, 8, 0, 1, 0, 0} // unknown mode
	var closeFrame [frameHeaderLen]byte
	putFrameHeader(&closeFrame, frameClose, 0, 0, 0)
	cases := map[string][]step{
		// Two whole frames buffered and a third cut short: the read
		// returns both and does not wait for the third.
		"never-blocks-once-holding-bytes": {
			{wire: bytes.Join([][]byte{storedFrame(64, 1), storedFrame(64, 2), third[:10]}, nil), buf: connBufSize,
				want: append(full(1), full(2)...)},
			{wire: third[10:], buf: connBufSize, want: full(3)},
		},
		"stops-after-a-short-block": {
			{wire: append(storedFrame(17, 1), storedFrame(64, 2)...), buf: connBufSize,
				want: bytes.Repeat([]byte{1}, 17)},
			{buf: connBufSize, want: full(2)},
		},
		"fills-p-then-returns-the-tail": {
			{wire: append(storedFrame(64, 1), storedFrame(64, 2)...), buf: 100,
				want: append(full(1), bytes.Repeat([]byte{2}, 36)...)},
			{buf: 100, want: bytes.Repeat([]byte{2}, 28)},
		},
		"bytes-before-a-latched-protocol-error": {
			{wire: append(storedFrame(64, 1), garbage...), buf: connBufSize, want: full(1)},
			{buf: connBufSize, err: ErrProtocol},
			{buf: connBufSize, err: ErrProtocol},
		},
		"bytes-before-a-latched-eof": {
			{wire: append(storedFrame(64, 1), closeFrame[:]...), buf: connBufSize, want: full(1)},
			{buf: connBufSize, err: io.EOF},
			{buf: connBufSize, err: io.EOF},
		},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			raw, srv := rawFramePeer(t)
			if err := srv.NetConn().SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			for i, s := range steps {
				if s.wire != nil {
					go func() { _, _ = raw.Write(s.wire) }()
				}
				p := make([]byte, s.buf)
				n, err := srv.Read(p)
				if s.err != nil {
					if n != 0 || !errors.Is(err, s.err) {
						t.Fatalf("read %d: (%d, %v), want (0, %v)", i, n, err, s.err)
					}
					continue
				}
				if err != nil || !bytes.Equal(p[:n], s.want) {
					t.Fatalf("read %d: (%d, %v), want (%d, nil) and the frames' bytes", i, n, err, len(s.want))
				}
			}
		})
	}
}
