package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/metrics"
)

// startServer boots a Server on a loopback listener and returns it with
// its address. Cleanup shuts it down with a generous deadline.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return serveOn(t, opts, ln), ln.Addr().String()
}

// serveOn serves a new Server on ln until cleanup shuts it down.
func serveOn(t *testing.T, opts Options, ln net.Listener) *Server {
	t.Helper()
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

// echoOnce runs one complete client stream against addr: dial,
// handshake, write payload, half-close, verify the echo byte-exactly.
func echoOnce(addr, codec string, payload []byte) error {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = nc.Close() }()
	if err := nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	c, err := Client(nc, codec)
	if err != nil {
		return err
	}
	if err := nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	var got []byte
	readErr := make(chan error, 1)
	go func() {
		b, err := io.ReadAll(c)
		got = b
		readErr <- err
	}()
	if _, err := c.Write(payload); err != nil {
		<-readErr
		return fmt.Errorf("write: %w", err)
	}
	if err := c.CloseWrite(); err != nil {
		<-readErr
		return err
	}
	if err := <-readErr; err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("echo mismatch: got %d bytes, want %d", len(got), len(payload))
	}
	return nil
}

// TestServerConcurrentEcho: many concurrent streams across all codecs,
// every one byte-exact. Run under -race this also exercises the
// metrics atomics from many goroutines.
func TestServerConcurrentEcho(t *testing.T) {
	srv, addr := startServer(t, Options{})
	const n = 40
	codecs := compress.Names()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := testPayload(64*10 + i) // vary alignment per stream
			if err := echoOnce(addr, codecs[i%len(codecs)], payload); err != nil {
				errs <- fmt.Errorf("stream %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All streams closed cleanly: totals balanced, nothing active.
	waitFor(t, time.Second, func() bool { return srv.ActiveConns() == 0 })
	st := srv.Status()
	if st.Accepted != n {
		t.Fatalf("accepted %d, want %d", st.Accepted, n)
	}
	if st.ConnErrors != 0 || st.HandshakeErrors != 0 {
		t.Fatalf("unexpected errors in %+v", st)
	}
	if st.BlocksIn == 0 || st.BlocksIn != st.BlocksOut {
		t.Fatalf("echo block totals unbalanced: in=%d out=%d", st.BlocksIn, st.BlocksOut)
	}
	if st.BytesIn != st.BytesOut {
		t.Fatalf("echo byte totals unbalanced: in=%d out=%d", st.BytesIn, st.BytesOut)
	}
	var sum uint64
	for _, c := range st.StreamsByCodec {
		sum += c
	}
	if sum != n {
		t.Fatalf("streams_by_codec sums to %d, want %d", sum, n)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s", d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerGracefulDrain: Shutdown must let an in-flight stream finish
// and then return nil; new dials must not be served while draining.
func TestServerGracefulDrain(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Open a stream and park it mid-conversation.
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	c, err := Client(nc, "delta")
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(640)
	if _, err := c.Write(payload[:320]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return srv.ActiveConns() == 1 })

	// Start the drain; it must block on the live stream.
	shutErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutErr <- srv.Shutdown(ctx) }()

	// New connections must not be served while draining: either the
	// dial fails outright (listener closed) or the handshake dies.
	waitFor(t, time.Second, func() bool {
		nc2, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return true
		}
		_ = nc2.SetDeadline(time.Now().Add(500 * time.Millisecond))
		_, herr := Client(nc2, "delta")
		_ = nc2.Close()
		return herr != nil
	})

	// The parked stream still works mid-drain, then completes.
	var got []byte
	readErr := make(chan error, 1)
	go func() {
		b, err := io.ReadAll(c)
		got = b
		readErr <- err
	}()
	if _, err := c.Write(payload[320:]); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("drain-phase read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("drain-phase echo corrupt")
	}

	if err := <-shutErr; err != nil {
		t.Fatalf("graceful Shutdown returned %v, want nil", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain, want nil", err)
	}
	if !srv.Status().Draining {
		t.Fatalf("status should report draining after Shutdown")
	}
}

// TestServerForcedDrain: a stream that never finishes forces Shutdown
// to expire its context, force-close the conn, and return ctx.Err().
func TestServerForcedDrain(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	c, err := Client(nc, "none")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(testPayload(64)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return srv.ActiveConns() == 1 })
	// ... and then the client goes silent, holding the stream open.

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("forced drain took %s — conns were not force-closed", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	waitFor(t, time.Second, func() bool { return srv.ActiveConns() == 0 })
}

// TestServerMaxConnsBackpressure: with MaxConns=2, a third stream is
// not served until one of the first two finishes — and is served then.
func TestServerMaxConnsBackpressure(t *testing.T) {
	srv, addr := startServer(t, Options{MaxConns: 2})

	// Occupy both permits with parked streams.
	parked := make([]*Conn, 2)
	for i := range parked {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nc.Close() })
		c, err := Client(nc, "none")
		if err != nil {
			t.Fatal(err)
		}
		parked[i] = c
	}
	waitFor(t, time.Second, func() bool { return srv.ActiveConns() == 2 })

	// The third stream: the server won't even accept it, so it sits in
	// the listen backlog. Prove it is NOT served while the permits are
	// held, then release a permit and prove it completes.
	done := make(chan error, 1)
	go func() { done <- echoOnce(addr, "delta", testPayload(256)) }()
	select {
	case err := <-done:
		t.Fatalf("third stream completed while MaxConns held (err=%v)", err)
	case <-time.After(150 * time.Millisecond):
		// still queued — backpressure holding
	}
	if got := srv.ActiveConns(); got != 2 {
		t.Fatalf("active=%d while at the bound, want 2", got)
	}

	// Finish one parked stream; the queued dial must now be served.
	if err := parked[0].CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(parked[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued stream after permit release: %v", err)
	}

	if err := parked[1].CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(parked[1]); err != nil {
		t.Fatal(err)
	}
}

// TestServerMetricsScopeLifecycle: a live conn's per-conn scope is
// visible in the Prometheus render; after it closes, the scope is gone
// and its counters are folded into the aggregate families.
func TestServerMetricsScopeLifecycle(t *testing.T) {
	srv, addr := startServer(t, Options{})

	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	c, err := Client(nc, "delta")
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(64 * 4)
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has echoed at least one block back.
	buf := make([]byte, 64)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}

	text := string(srv.M.RenderPrometheus())
	if err := metrics.CheckPrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("live render not lintable: %v\n%s", err, text)
	}
	if !strings.Contains(text, "disco_stream_conn_1_blocks_in") {
		t.Fatalf("live render missing per-conn scope for conn 1:\n%s", text)
	}
	if !strings.Contains(text, "disco_stream_conns_active 1\n") {
		t.Fatalf("live render missing active gauge:\n%s", text)
	}

	// Close the stream; the scope must retire and the totals must keep
	// every block it moved.
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(c); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return srv.ActiveConns() == 0 })

	text = string(srv.M.RenderPrometheus())
	if err := metrics.CheckPrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("post-close render not lintable: %v", err)
	}
	if strings.Contains(text, "disco_stream_conn_1_blocks_in") {
		t.Fatalf("per-conn scope survived the close:\n%s", text)
	}
	bi, bo, byi, byo, wi, wo := srv.M.Totals()
	if byi != uint64(len(payload)) || byo != uint64(len(payload)) {
		t.Fatalf("folded byte totals %d/%d, want %d", byi, byo, len(payload))
	}
	if bi != 4 || bo != 4 {
		t.Fatalf("folded block totals %d/%d, want 4/4", bi, bo)
	}
	if wi == 0 || wo == 0 {
		t.Fatalf("wire byte totals not folded: %d/%d", wi, wo)
	}
	if !strings.Contains(text, "disco_stream_codec_delta_streams 1\n") {
		t.Fatalf("per-codec family missing after close:\n%s", text)
	}
}

// TestServerPerConnScopeBound: the render caps per-conn scopes at
// maxPerConnScopes even with more live conns than that.
func TestServerPerConnScopeBound(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < maxPerConnScopes+16; i++ {
		cs := m.OpenConn()
		cs.Codec = "none"
		m.Handshook(cs)
	}
	text := string(m.RenderPrometheus())
	if err := metrics.CheckPrometheusText(strings.NewReader(text)); err != nil {
		t.Fatalf("render not lintable: %v", err)
	}
	if n := strings.Count(text, "# TYPE disco_stream_conn_"); n != 6*maxPerConnScopes {
		t.Fatalf("%d per-conn families rendered, want %d (cap %d scopes × 6 families)",
			n, 6*maxPerConnScopes, maxPerConnScopes)
	}
	if !strings.Contains(text, fmt.Sprintf("disco_stream_conns_active %d", maxPerConnScopes+16)) {
		t.Fatalf("aggregate gauge must still count every conn:\n%s", text)
	}
}

// TestServerRejectsBadHandshakes: protocol garbage and unknown codecs
// are counted, never crash the accept loop, and later good streams
// still work.
func TestServerRejectsBadHandshakes(t *testing.T) {
	srv, addr := startServer(t, Options{Codecs: []string{"delta", "none"}, HandshakeTimeout: 500 * time.Millisecond})

	// Garbage magic.
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte("PROXY TCP4 whatever\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = nc.Close()

	// Codec outside the allowlist gets the typed reject.
	nc2, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc2.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := Client(nc2, "fpc"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("allowlist reject: %v, want ErrUnknownCodec", err)
	}
	_ = nc2.Close()

	waitFor(t, 2*time.Second, func() bool { return srv.M.HandshakeErrors.Load() == 2 })

	// The server is unharmed.
	if err := echoOnce(addr, "delta", testPayload(128)); err != nil {
		t.Fatalf("good stream after rejects: %v", err)
	}
	st := srv.Status()
	if st.Accepted != 1 || st.HandshakeErrors != 2 {
		t.Fatalf("status after rejects: %+v", st)
	}
}

// TestNewServerValidation: bad configs fail at construction.
func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Options{Codecs: []string{"delta", "nope"}}); err == nil {
		t.Fatalf("unknown allowlist codec accepted")
	}
	if _, err := NewServer(Options{MaxConns: -1}); err == nil {
		t.Fatalf("negative MaxConns accepted")
	}
}

// TestServeAfterShutdown: a drained server refuses to serve again.
func TestServeAfterShutdown(t *testing.T) {
	srv, err := NewServer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	// Don't race the drain against Serve's own startup.
	waitFor(t, time.Second, func() bool { return srv.Status().Listen != "" })
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Shutdown: %v, want ErrClosed", err)
	}
}
