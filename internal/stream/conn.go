package stream

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/disco-sim/disco/internal/compress"
)

// connBufSize sizes the per-connection bufio buffers. One frame is at
// most frameHeaderLen+maxFramePayload = 70 bytes; 1 KiB batches a
// dozen frames per syscall while keeping per-conn memory small enough
// that thousands of concurrent streams stay in tens of megabytes.
const connBufSize = 1024

// defaultHandshakeTimeout bounds how long either end waits for the
// peer's half of the handshake. A stalled or half-sent hello must
// produce a typed error, never a hang.
const defaultHandshakeTimeout = 10 * time.Second

// connBufs is the pooled per-connection buffered I/O pair — the server
// recycles these across connections (the PR 8 arena discipline applied
// to the accept loop: steady-state serving reuses, it does not grow).
type connBufs struct {
	br *bufio.Reader
	bw *bufio.Writer
}

var bufPool = sync.Pool{New: func() any {
	return &connBufs{
		br: bufio.NewReaderSize(nil, connBufSize),
		bw: bufio.NewWriterSize(nil, connBufSize),
	}
}}

// Conn is one compressed stream over a net.Conn: an io.ReadWriteCloser
// whose Write frames bytes into 64-byte blocks compressed against the
// stream's persistent state, and whose Read reverses it. The two
// directions carry independent state, so Read and Write are safe to
// use concurrently (one reader plus one writer; neither method is
// reentrant). Neither allocates per block: frames are encoded into and
// decoded out of each direction's compress.Stateful scratch.
type Conn struct {
	nc    net.Conn
	codec string
	bufs  *connBufs
	stats *ConnStats // nil on client conns without metrics

	wmu     sync.Mutex
	bw      *bufio.Writer
	enc     *compress.Stateful
	wblock  [compress.BlockSize]byte
	whdr    [frameHeaderLen]byte
	wclosed bool

	rmu      sync.Mutex
	br       *bufio.Reader
	dec      *compress.Stateful
	rhdr     [frameHeaderLen]byte
	rscratch [maxFramePayload]byte
	rbuf     []byte // unread tail of the last decoded block (dec's scratch)
	reof     bool
	rerr     error
}

// newConn wraps nc after a successful handshake. Each direction gets
// its own codec instance: trainable codecs hold per-direction tables.
func newConn(nc net.Conn, codec string, stats *ConnStats) (*Conn, error) {
	encAlg, err := compress.New(codec)
	if err != nil {
		return nil, err
	}
	decAlg, err := compress.New(codec)
	if err != nil {
		return nil, err
	}
	bufs := bufPool.Get().(*connBufs)
	bufs.br.Reset(nc)
	bufs.bw.Reset(nc)
	return &Conn{
		nc: nc, codec: codec, bufs: bufs, stats: stats,
		bw: bufs.bw, br: bufs.br,
		enc: compress.NewStateful(encAlg),
		dec: compress.NewStateful(decAlg),
	}, nil
}

// Client performs the client handshake over nc, negotiating codec, and
// returns the wrapped stream. The handshake runs under the default
// deadline; use ClientTimeout to pick another.
func Client(nc net.Conn, codec string) (*Conn, error) {
	return ClientTimeout(nc, codec, defaultHandshakeTimeout)
}

// ClientTimeout is Client with an explicit handshake deadline
// (0 disables it).
func ClientTimeout(nc net.Conn, codec string, timeout time.Duration) (*Conn, error) {
	if err := armDeadline(nc, timeout); err != nil {
		return nil, err
	}
	if err := writeHello(nc, codec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncatedHello, err)
	}
	if err := readReply(nc, codec); err != nil {
		return nil, err
	}
	if err := armDeadline(nc, 0); err != nil {
		return nil, err
	}
	return newConn(nc, codec, nil)
}

// AcceptOptions parameterizes the server side of a handshake.
type AcceptOptions struct {
	// Allowed restricts negotiable codecs (nil accepts the registry).
	Allowed func(string) bool
	// HandshakeTimeout bounds the handshake (0 = the default).
	HandshakeTimeout time.Duration
	// Stats, when non-nil, receives this connection's counters.
	Stats *ConnStats
}

// Accept performs the server handshake over nc and returns the wrapped
// stream. On error the caller still owns nc (and should close it); the
// reject reply, when one applies, has already been sent.
func Accept(nc net.Conn, opts *AcceptOptions) (*Conn, error) {
	var o AcceptOptions
	if opts != nil {
		o = *opts
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = defaultHandshakeTimeout
	}
	if err := armDeadline(nc, o.HandshakeTimeout); err != nil {
		return nil, err
	}
	codec, err := serverHandshake(nc, o.Allowed)
	if err != nil {
		return nil, err
	}
	if err := armDeadline(nc, 0); err != nil {
		return nil, err
	}
	if o.Stats != nil {
		o.Stats.Codec = codec
	}
	return newConn(nc, codec, o.Stats)
}

// armDeadline sets (or clears, for d == 0) the connection deadline.
func armDeadline(nc net.Conn, d time.Duration) error {
	if d == 0 {
		return nc.SetDeadline(time.Time{})
	}
	return nc.SetDeadline(time.Now().Add(d))
}

// Codec returns the negotiated codec name.
func (c *Conn) Codec() string { return c.codec }

// NetConn returns the underlying connection (for deadline control).
func (c *Conn) NetConn() net.Conn { return c.nc }

// Write frames p into 64-byte blocks, compresses each against the
// stream state and flushes the result. A trailing partial block is
// zero-padded (its frame records the true byte count), so every Write
// is fully visible to the peer's Read when Write returns.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wclosed {
		return 0, ErrClosed
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		var blk []byte
		if n >= compress.BlockSize {
			n = compress.BlockSize
			blk = p[:compress.BlockSize]
		} else {
			c.wblock = [compress.BlockSize]byte{}
			copy(c.wblock[:], p)
			blk = c.wblock[:]
		}
		sb := c.enc.Encode(blk)
		putFrameHeader(&c.whdr, byte(sb.Mode), n, sb.SizeBits, len(sb.Payload))
		if _, err := c.bw.Write(c.whdr[:]); err != nil {
			return total, err
		}
		if _, err := c.bw.Write(sb.Payload); err != nil {
			return total, err
		}
		if c.stats != nil {
			c.stats.BlocksOut.Add(1)
			c.stats.BytesOut.Add(uint64(n))
			c.stats.WireBytesOut.Add(uint64(frameHeaderLen + len(sb.Payload)))
		}
		total += n
		p = p[n:]
	}
	if err := c.bw.Flush(); err != nil {
		return total, err
	}
	return total, nil
}

// CloseWrite half-closes the stream: the peer's Read drains buffered
// data and then returns io.EOF. The read direction stays usable.
func (c *Conn) CloseWrite() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.wclosed {
		return ErrClosed
	}
	c.wclosed = true
	putFrameHeader(&c.whdr, frameClose, 0, 0, 0)
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	// Propagate the half-close to transports that support it (TCP FIN),
	// so a peer reading the raw conn also observes EOF.
	if hc, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	}
	return nil
}

// Read decodes frames into application bytes. It returns io.EOF after
// the peer's half-close, and ErrProtocol (wrapped) on any malformed or
// corrupt frame — a broken stream never resynchronizes.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.rbuf) == 0 {
		if c.rerr != nil {
			return 0, c.rerr
		}
		if c.reof {
			return 0, io.EOF
		}
		f, err := readFrame(c.br, &c.rhdr, c.rscratch[:])
		if err != nil {
			c.rerr = err
			return 0, err
		}
		if f.mode == frameClose {
			c.reof = true
			return 0, io.EOF
		}
		out, err := c.dec.Decode(compress.StatefulBlock{
			Mode:     compress.BlockMode(f.mode),
			SizeBits: f.sizeBits,
			Payload:  f.payload,
		})
		if err != nil {
			c.rerr = fmt.Errorf("%w: block decode: %v", ErrProtocol, err)
			return 0, c.rerr
		}
		c.rbuf = out[:f.n] // valid until the next Decode, which waits for it to drain
		if c.stats != nil {
			c.stats.BlocksIn.Add(1)
			c.stats.BytesIn.Add(uint64(f.n))
			c.stats.WireBytesIn.Add(uint64(frameHeaderLen + len(f.payload)))
		}
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

// Close closes the underlying connection. It does not flush: call
// CloseWrite first for a graceful end-of-stream.
func (c *Conn) Close() error { return c.nc.Close() }

// release returns the pooled buffers. Only the server calls it, after
// its serve loop has fully finished with the conn — a released conn
// must never see another Read or Write.
func (c *Conn) release() {
	bufs := c.bufs
	if bufs == nil {
		return
	}
	c.bufs = nil
	bufs.br.Reset(nil)
	bufs.bw.Reset(nil)
	bufPool.Put(bufs)
}
