package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/obs"
)

// Options parameterizes a Server.
type Options struct {
	// Codecs is the negotiable-codec allowlist (nil/empty = the full
	// registry). Unknown names are a construction error, not a silent
	// accept-nothing server.
	Codecs []string
	// MaxConns bounds concurrently served connections; the accept loop
	// stops accepting while at the bound (kernel-backlog backpressure),
	// so server memory stays proportional to MaxConns, not to demand.
	// 0 means DefaultMaxConns.
	MaxConns int
	// HandshakeTimeout bounds each connection's handshake (0 = 10s).
	HandshakeTimeout time.Duration
	// Rep receives accept-loop diagnostics (nil discards).
	Rep *obs.Reporter
}

// DefaultMaxConns is the concurrent-connection bound when Options
// leaves MaxConns zero.
const DefaultMaxConns = 4096

// Server is the discod core: it accepts connections, handshakes a
// codec for each, and serves the echo loop — every decoded block is
// re-compressed through the return direction's stream state and sent
// back. One goroutine per connection; per-conn buffers come from the
// shared pool; per-conn backpressure is the synchronous echo loop
// itself (a slow reader stalls its own stream's reads, nothing else).
type Server struct {
	opts    Options
	allowed map[string]bool
	M       *Metrics

	sem chan struct{} // MaxConns permits

	mu       sync.Mutex
	ln       net.Listener
	conns    map[uint64]net.Conn // raw conns, for force-close
	draining bool

	wg sync.WaitGroup // live serve goroutines
}

// NewServer validates opts and builds an idle server.
func NewServer(opts Options) (*Server, error) {
	var allowed map[string]bool
	if len(opts.Codecs) > 0 {
		allowed = make(map[string]bool, len(opts.Codecs))
		for _, name := range opts.Codecs {
			if _, err := compress.New(name); err != nil {
				return nil, fmt.Errorf("stream: codec allowlist: %w", err)
			}
			allowed[name] = true
		}
	}
	if opts.MaxConns == 0 {
		opts.MaxConns = DefaultMaxConns
	}
	if opts.MaxConns < 1 {
		return nil, fmt.Errorf("stream: MaxConns %d out of range", opts.MaxConns)
	}
	return &Server{
		opts:    opts,
		allowed: allowed,
		M:       NewMetrics(),
		sem:     make(chan struct{}, opts.MaxConns),
		conns:   make(map[uint64]net.Conn),
	}, nil
}

// Serve accepts on ln until Shutdown (which returns nil here) or a
// fatal listener error. Call from at most one goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		// Backpressure: a permit is held from before Accept to the end
		// of the connection's serve loop, so at most MaxConns streams
		// (and their buffers) exist at once.
		s.sem <- struct{}{}
		nc, err := ln.Accept()
		if err != nil {
			<-s.sem
			if s.isDraining() {
				return nil
			}
			return err
		}
		if s.isDraining() {
			// Raced a late arrival past the listener close.
			s.M.Refused.Add(1)
			_ = nc.Close()
			<-s.sem
			continue
		}
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// track registers a raw conn for force-close; untrack removes it.
func (s *Server) track(id uint64, nc net.Conn) { s.mu.Lock(); s.conns[id] = nc; s.mu.Unlock() }
func (s *Server) untrack(id uint64)            { s.mu.Lock(); delete(s.conns, id); s.mu.Unlock() }

// serveConn runs one connection: handshake, echo loop, teardown.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() { <-s.sem }()
	defer func() { _ = nc.Close() }()

	cs := s.M.OpenConn()
	defer s.M.CloseConn(cs)
	s.track(cs.ID, nc)
	defer s.untrack(cs.ID)

	c, err := Accept(nc, &AcceptOptions{
		Allowed: func(name string) bool {
			return s.allowed == nil || s.allowed[name]
		},
		HandshakeTimeout: s.opts.HandshakeTimeout,
		Stats:            cs,
	})
	if err != nil {
		s.M.HandshakeErrors.Add(1)
		s.opts.Rep.Infof("handshake from %s failed: %v", nc.RemoteAddr(), err)
		return
	}
	s.M.Handshook(cs)
	defer c.release()

	if err := echo(c); err != nil && !errors.Is(err, net.ErrClosed) {
		s.M.ConnErrors.Add(1)
		s.opts.Rep.Infof("stream %d (%s) aborted: %v", cs.ID, c.Codec(), err)
	}
}

// echo is a connection's data phase. Read decompresses every frame
// already buffered, up to connBufSize bytes; one Write recompresses the
// batch through the return direction's persistent state and flushes it
// once, before the loop blocks on its next Read. io.CopyBuffer keeps
// the loop allocation-free per batch. After the client's half-close,
// echo sends ours so the client can drain.
func echo(c *Conn) error {
	var buf [connBufSize]byte
	if _, err := io.CopyBuffer(onlyWriter{c}, onlyReader{c}, buf[:]); err != nil {
		return err
	}
	return c.CloseWrite()
}

// onlyReader / onlyWriter hide Conn's other methods from io.CopyBuffer
// so it cannot bypass the buffer via WriteTo/ReadFrom detection.
type onlyReader struct{ io.Reader }
type onlyWriter struct{ io.Writer }

// Shutdown drains the server: stop accepting, let in-flight streams
// finish, force-close whatever remains when ctx expires. It returns
// nil after a clean drain and ctx.Err() after a forced one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Forced drain: close every live raw conn; their serve loops error
	// out and the WaitGroup drains.
	s.mu.Lock()
	for _, nc := range s.conns {
		_ = nc.Close()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// ActiveConns reports the number of live connections (handshaking or
// serving).
func (s *Server) ActiveConns() int { return s.M.ActiveConns() }

// Status is the /status document discod serves.
type Status struct {
	Listen          string            `json:"listen"`
	Draining        bool              `json:"draining"`
	ActiveConns     int               `json:"active_conns"`
	Accepted        uint64            `json:"accepted"`
	HandshakeErrors uint64            `json:"handshake_errors"`
	ConnErrors      uint64            `json:"conn_errors"`
	Refused         uint64            `json:"refused"`
	BlocksIn        uint64            `json:"blocks_in"`
	BlocksOut       uint64            `json:"blocks_out"`
	BytesIn         uint64            `json:"bytes_in"`
	BytesOut        uint64            `json:"bytes_out"`
	WireBytesIn     uint64            `json:"wire_bytes_in"`
	WireBytesOut    uint64            `json:"wire_bytes_out"`
	StreamsByCodec  map[string]uint64 `json:"streams_by_codec"`
}

// Status snapshots the server for the live /status endpoint. Safe from
// any goroutine.
func (s *Server) Status() Status {
	s.mu.Lock()
	addr := ""
	if s.ln != nil {
		addr = s.ln.Addr().String()
	}
	draining := s.draining
	s.mu.Unlock()

	byCodec := make(map[string]uint64)
	s.M.mu.Lock()
	for name, n := range s.M.byCodec {
		byCodec[name] = n
	}
	s.M.mu.Unlock()

	bi, bo, byi, byo, wi, wo := s.M.Totals()
	return Status{
		Listen:          addr,
		Draining:        draining,
		ActiveConns:     s.M.ActiveConns(),
		Accepted:        s.M.Accepted.Load(),
		HandshakeErrors: s.M.HandshakeErrors.Load(),
		ConnErrors:      s.M.ConnErrors.Load(),
		Refused:         s.M.Refused.Load(),
		BlocksIn:        bi,
		BlocksOut:       bo,
		BytesIn:         byi,
		BytesOut:        byo,
		WireBytesIn:     wi,
		WireBytesOut:    wo,
		StreamsByCodec:  byCodec,
	}
}
