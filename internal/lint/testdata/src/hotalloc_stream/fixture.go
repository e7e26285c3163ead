// Package fixture exercises the hotalloc analyzer's stream roots:
// (*Conn).Read and (*Conn).Write run once per 64-byte block of every
// discod stream, so heap allocations reachable from them are findings
// unless recycled, escaping, or on an init path.
package fixture

// Conn mimics a compressed stream: fixed frame scratch per direction.
type Conn struct {
	hdr     [6]byte
	rblock  [64]byte
	rbuf    []byte
	pending []byte
}

// NewConn is an init path: construction may allocate freely.
func NewConn() *Conn { return &Conn{pending: make([]byte, 0, 64)} }

// Write is a root: framing through recycled scratch is allowed, a
// per-frame buffer is not.
func (c *Conn) Write(p []byte) (int, error) {
	c.pending = c.pending[:0]
	c.pending = append(c.pending, c.hdr[:]...) // allowed: recycled scratch
	frame := make([]byte, len(c.hdr)+len(p))   // want "heap allocation on the hot path"
	copy(frame, c.pending)
	return len(p), nil
}

// Read is a root; the helpers it calls are reachable too.
func (c *Conn) Read(p []byte) (int, error) {
	if len(c.rbuf) == 0 {
		c.fill()
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

func (c *Conn) fill() {
	if c.pending == nil {
		c.rbuf = make([]byte, len(c.rblock)) // want "heap allocation on the hot path"
		return
	}
	c.rbuf = c.rblock[:] // allowed: aliases fixed scratch
}

// Close is not a root: it may allocate.
func (c *Conn) Close() error {
	c.pending = make([]byte, 0, 64)
	return nil
}
