package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/disco-sim/disco/internal/compress"
)

// connBufSize sizes the per-connection bufio buffers and the server's
// echo buffer. One frame is at most frameHeaderLen+maxFramePayload =
// 70 bytes; 1 KiB batches a dozen or more frames per syscall, and the
// echo moves up to 16 buffered blocks per Read and flushes them once,
// while per-conn memory stays small enough that thousands of
// concurrent streams stay in tens of megabytes.
const connBufSize = 1024

// defaultHandshakeTimeout bounds how long either end waits for the
// peer's half of the handshake. A stalled or half-sent hello must
// produce a typed error, never a hang.
const defaultHandshakeTimeout = 10 * time.Second

// connBufs is the pooled per-connection I/O memory: the buffered
// reader and writer, and the echo's copy buffer. Both ends recycle it
// across connections: steady-state serving reuses, it does not grow.
type connBufs struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	echo [connBufSize]byte
}

var bufPool = sync.Pool{New: func() any {
	return &connBufs{
		br: bufio.NewReaderSize(nil, connBufSize),
		bw: bufio.NewWriterSize(nil, connBufSize),
	}
}}

// codecState is one connection's codec state: a compress.Stateful per
// direction, each over its own algorithm instance (trainable codecs
// hold per-direction tables). enc only ever encodes and dec only ever
// decodes, so a recycled pair has already sized the tables its sides
// build.
type codecState struct {
	enc, dec *compress.Stateful
}

// statePools recycles codecState per codec. A released pair goes back
// reset to the state of a new one but keeping its memory, so a stream
// that draws it refills histograms and tables instead of regrowing
// them; the first stream of a codec draws from an empty pool and builds
// a new pair.
var statePools = func() map[string]*sync.Pool {
	pools := make(map[string]*sync.Pool)
	for _, name := range compress.Names() {
		pools[name] = &sync.Pool{New: func() any {
			enc, _ := compress.New(name)
			dec, _ := compress.New(name)
			return &codecState{enc: compress.NewStateful(enc), dec: compress.NewStateful(dec)}
		}}
	}
	return pools
}()

// connPool recycles the Conn structs the server releases.
var connPool = sync.Pool{New: func() any { return new(Conn) }}

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
	state *codecState
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
	rerr     error  // latched: io.EOF after the peer's half-close, or the failure
}

// newConn wraps nc after a successful handshake, with the Conn, its
// codec state and its buffers drawn from their pools.
func newConn(nc net.Conn, codec string, stats *ConnStats) (*Conn, error) {
	pool := statePools[codec]
	if pool == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, codec)
	}
	st := pool.Get().(*codecState)
	bufs := bufPool.Get().(*connBufs)
	bufs.br.Reset(nc)
	bufs.bw.Reset(nc)
	c := connPool.Get().(*Conn)
	c.nc, c.codec, c.bufs, c.state, c.stats = nc, codec, bufs, st, stats
	c.bw, c.enc = bufs.bw, st.enc
	c.br, c.dec = bufs.br, st.dec
	return c, nil
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

// Read decodes frames into application bytes. It blocks only for the
// first frame of a call. After that it keeps decoding frames that are
// already buffered in full while p has room, and it stops after a
// short (partial) block. So when len(p) is a multiple of the block
// size, a Write of what Read returned re-frames exactly the peer's
// blocks (the server's echo relies on this). An error or the peer's
// half-close met after some bytes were decoded is returned by the next
// call. Read returns io.EOF after the peer's half-close, and
// ErrProtocol (wrapped) on any malformed or corrupt frame — a broken
// stream never resynchronizes.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(c.rbuf) == 0 {
		if err := c.readBlock(); err != nil {
			return 0, err
		}
	}
	n := 0
	for {
		m := copy(p[n:], c.rbuf)
		c.rbuf = c.rbuf[m:]
		n += m
		if m < compress.BlockSize || n == len(p) || !c.frameBuffered() {
			return n, nil
		}
		if c.readBlock() != nil {
			return n, nil // latched: the next call returns it
		}
	}
}

// frameBuffered reports whether a whole frame is in the read buffer, so
// that reading it cannot block. It checks Buffered before Peek, which
// blocks when fewer bytes are buffered than it asks for.
func (c *Conn) frameBuffered() bool {
	if c.br.Buffered() < frameHeaderLen {
		return false
	}
	hdr, _ := c.br.Peek(frameHeaderLen)
	return c.br.Buffered() >= frameHeaderLen+int(binary.LittleEndian.Uint16(hdr[4:]))
}

// readBlock reads and decodes the next frame into c.rbuf. An error,
// io.EOF included, latches: every later call returns it again.
func (c *Conn) readBlock() error {
	if c.rerr != nil {
		return c.rerr
	}
	f, err := readFrame(c.br, &c.rhdr, c.rscratch[:])
	if err == nil && f.mode == frameClose {
		err = io.EOF
	}
	if err != nil {
		c.rerr = err
		return err
	}
	out, err := c.dec.Decode(compress.StatefulBlock{
		Mode:     compress.BlockMode(f.mode),
		SizeBits: f.sizeBits,
		Payload:  f.payload,
	})
	if err != nil {
		c.rerr = fmt.Errorf("%w: block decode: %v", ErrProtocol, err)
		return c.rerr
	}
	c.rbuf = out[:f.n] // valid until the next Decode, which waits for it to drain
	if c.stats != nil {
		c.stats.BlocksIn.Add(1)
		c.stats.BytesIn.Add(uint64(f.n))
		c.stats.WireBytesIn.Add(uint64(frameHeaderLen + len(f.payload)))
	}
	return nil
}

// Close closes the underlying connection. It does not flush: call
// CloseWrite first for a graceful end-of-stream. When both directions
// are finished — this end has half-closed, and the read side has
// latched the peer's half-close or an error — and no Read or Write is
// in flight, Close first recycles the stream's codec state and
// buffers. It looks before it closes the connection, so a Read or Write
// blocked on it still holds its lock and keeps the state. Either way
// every later Read returns the latched error and every Write ErrClosed.
func (c *Conn) Close() error {
	if c.wmu.TryLock() {
		if c.rmu.TryLock() {
			if c.wclosed && c.rerr != nil {
				c.releaseState()
			}
			c.rmu.Unlock()
		}
		c.wmu.Unlock()
	}
	return c.nc.Close()
}

// releaseState resets the codec state and returns it and the buffers
// to their pools. The caller holds both directions' locks, or owns the
// Conn outright. Read then never gets past the latched rerr and Write
// never past wclosed, so neither touches what was released.
func (c *Conn) releaseState() {
	if c.state == nil {
		return
	}
	c.state.enc.Reset()
	c.state.dec.Reset()
	statePools[c.codec].Put(c.state)
	c.bufs.br.Reset(nil)
	c.bufs.bw.Reset(nil)
	bufPool.Put(c.bufs)
	c.state, c.enc, c.dec, c.rbuf = nil, nil, nil, nil
	c.bufs, c.br, c.bw = nil, nil, nil
}

// release is the server's teardown once its serve loop has finished
// with c: the codec state, the buffers and the Conn itself go back to
// their pools. No reference to c may outlive the call.
func (c *Conn) release() {
	c.releaseState()
	*c = Conn{}
	connPool.Put(c)
}
