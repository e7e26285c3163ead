package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/stream"
)

// streamClients is the number of closed-loop clients, one per CPU; each
// holds one connection at a time.
const streamClients = 2

// streamTimeout bounds one stream end to end, so a wedged peer fails the
// stream instead of hanging the run.
const streamTimeout = 60 * time.Second

// errCorrupt marks an echo that differs from what was sent.
var errCorrupt = errors.New("corrupt echo")

// streamWorkload drives an in-process stream.Server over 127.0.0.1 with
// closed-loop clients. Each rep, every client opens one stream per codec
// (client 0 starting at delta, client 1 at cpack) and checks every echoed
// byte.
//
// stream-rtt writes one 64-byte block and waits for its echo before the
// next, in streams of 1024 blocks: per-block latency, where syscalls,
// framing and handshakes dominate, and no stream gets a long history.
// stream-bulk sends 1 MiB streams in 4 KiB writes while a second
// goroutine verifies the echo: throughput, where per-block codec work
// and stream-history length matter.
type streamWorkload struct {
	name     string
	bulk     bool
	seed     int64
	blocks   int // 64-byte blocks per stream
	chunk    int // bytes per Write
	window   int // blocks per codec-timing window
	payloads [streamClients][][]byte

	srv    *stream.Server
	addr   string
	served chan error

	// Traced-rep samples and totals.
	opens, writes, reads hist
	codecBytes           [len(codecs)]float64
	codecSecs            [len(codecs)]float64
	wire, app            uint64
}

func newStreamWorkload(name string, pr params) *streamWorkload {
	w := &streamWorkload{name: name, seed: pr.seed, blocks: 1024, chunk: compress.BlockSize}
	if name == "stream-bulk" {
		w.bulk, w.blocks, w.chunk, w.window = true, 16384, 4096, 1024
	}
	if pr.tiny {
		w.blocks, w.window = 256, 64
	}
	return w
}

// codecAt is the codec of client c's slot-th stream in a rep.
func codecAt(c, slot int) int { return (slot + 4*c) % len(codecs) }

// setup generates the payloads, starts the server and opens one stream
// per client to prove it serves.
func (w *streamWorkload) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	for c := range w.payloads {
		w.payloads[c] = make([][]byte, len(codecs))
		for slot := range codecs {
			w.payloads[c][slot] = payload(w.seed, c, slot, w.blocks)
		}
	}
	srv, err := stream.NewServer(stream.Options{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv, w.addr, w.served = srv, ln.Addr().String(), make(chan error, 1)
	go func() { w.served <- srv.Serve(ln) }()
	for c := 0; c < streamClients; c++ {
		conn, err := w.open(codecs[codecAt(c, 0)])
		if err != nil {
			return err
		}
		err = finish(nil, c, -1, conn)
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// open dials the server and negotiates codec.
func (w *streamWorkload) open(codec string) (*stream.Conn, error) {
	nc, err := net.DialTimeout("tcp", w.addr, streamTimeout)
	if err != nil {
		return nil, err
	}
	c, err := stream.Client(nc, codec)
	if err == nil {
		// Client clears its handshake deadline; bound the whole stream.
		err = nc.SetDeadline(time.Now().Add(streamTimeout))
	}
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("open %s: %w", codec, err)
	}
	return c, nil
}

// expectEOF reads from conn, which must be at the server's half-close.
func expectEOF(conn *stream.Conn) error {
	var b [1]byte
	if n, err := conn.Read(b[:]); !errors.Is(err, io.EOF) {
		return fmt.Errorf("read %d bytes past the echo (%v)", n, err)
	}
	return nil
}

func (w *streamWorkload) warm() error {
	for c := 0; c < streamClients; c++ {
		for slot := range codecs {
			conn, err := w.open(codecs[codecAt(c, slot)])
			if err != nil {
				return err
			}
			data := w.payloads[c][slot][:16*compress.BlockSize]
			var echo [16 * compress.BlockSize]byte
			_, err = conn.Write(data)
			if err == nil {
				_, err = io.ReadFull(conn, echo[:])
			}
			if err == nil && !bytes.Equal(echo[:], data) {
				err = errCorrupt
			}
			if err == nil {
				err = finish(nil, c, -1, conn)
			}
			_ = conn.Close()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// clientRep is what one client did in one rep.
type clientRep struct {
	repStats
	opens, writes, reads hist // traced reps only
	codecBytes           [len(codecs)]float64
	codecSecs            [len(codecs)]float64
}

func (w *streamWorkload) rep(tr *tracer) (repStats, error) {
	var before stream.Status
	if tr != nil {
		before = w.srv.Status()
	}
	var wg sync.WaitGroup
	reps := make([]clientRep, streamClients)
	for c := range reps {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(tr, c, &reps[c])
		}(c)
	}
	wg.Wait()
	var st repStats
	for _, r := range reps {
		st.units += r.units
		st.latency.merge(&r.latency)
		st.attempted += r.attempted
		st.failed += r.failed
		if tr != nil {
			w.opens.merge(&r.opens)
			w.writes.merge(&r.writes)
			w.reads.merge(&r.reads)
			for i := range codecs {
				w.codecBytes[i] += r.codecBytes[i]
				w.codecSecs[i] += r.codecSecs[i]
			}
		}
	}
	if tr != nil {
		after := w.srv.Status()
		w.wire += after.WireBytesIn + after.WireBytesOut - before.WireBytesIn - before.WireBytesOut
		w.app += after.BytesIn + after.BytesOut - before.BytesIn - before.BytesOut
	}
	return st, nil
}

// client runs one client's streams for a rep on its own track. A stream
// that fails counts as a failed operation (a block for stream-rtt, the
// stream for stream-bulk) and the client moves on to its next stream.
func (w *streamWorkload) client(tr *tracer, c int, r *clientRep) {
	tr.track(c, fmt.Sprintf("client %d", c))
	root := tr.group("rep", c, -1)
	defer tr.end(root)
	for slot := range codecs {
		codec := codecAt(c, slot)
		data := w.payloads[c][slot]
		t0 := time.Now()
		sp := tr.group("stream "+codecs[codec], c, root)
		var blocks int
		var err error
		if w.bulk {
			err = w.bulkStream(tr, c, sp, codecs[codec], data, r)
			if err == nil {
				blocks = w.blocks
			}
			r.attempted++
		} else {
			blocks, err = w.rttStream(tr, c, sp, codecs[codec], data, r)
			r.attempted += blocks
		}
		tr.end(sp)
		r.units += float64(blocks)
		if err != nil {
			if !w.bulk {
				r.attempted++ // the block or close that failed
			}
			r.failed++
			fmt.Fprintf(os.Stderr, "e2ebench: %s client %d %s stream: %v\n", w.name, c, codecs[codec], err)
			continue
		}
		if tr != nil {
			r.codecBytes[codec] += float64(len(data))
			r.codecSecs[codec] += time.Since(t0).Seconds()
		}
	}
}

// rttStream sends data one block at a time, waiting for each verified
// echo, and returns the blocks echoed intact.
func (w *streamWorkload) rttStream(tr *tracer, c, sp int, codec string, data []byte, r *clientRep) (int, error) {
	conn, err := w.openTraced(tr, c, sp, codec, r)
	if err != nil {
		return 0, err
	}
	defer func() { _ = conn.Close() }()
	start := time.Now()
	var wsum, rsum time.Duration
	var echo [compress.BlockSize]byte
	n := 0
	for off := 0; off < len(data); off += compress.BlockSize {
		blk := data[off : off+compress.BlockSize]
		a := time.Now()
		if _, err := conn.Write(blk); err != nil {
			return n, fmt.Errorf("write: %w", err)
		}
		b := time.Now()
		if _, err := io.ReadFull(conn, echo[:]); err != nil {
			return n, fmt.Errorf("read: %w", err)
		}
		e := time.Now()
		if !bytes.Equal(echo[:], blk) {
			return n, errCorrupt
		}
		n++
		r.latency.add(e.Sub(a))
		if tr != nil {
			r.writes.add(b.Sub(a))
			r.reads.add(e.Sub(b))
			wsum += b.Sub(a)
			rsum += e.Sub(b)
		}
	}
	tr.aggregate("write", sp, start, wsum, int64(n))
	tr.aggregate("read_wait", sp, start.Add(wsum), rsum, int64(n))
	return n, finish(tr, c, sp, conn)
}

// echoLog carries a bulk stream's per-chunk send times from its writer to
// its verifying reader.
type echoLog struct {
	start time.Time
	sent  []atomic.Int64 // when each chunk's Write began, ns after start
}

// bulkStream writes data in chunks while a reader goroutine verifies the
// echo, and returns once the whole echo is verified. Until then only the
// reader records into r.latency and r.reads.
func (w *streamWorkload) bulkStream(tr *tracer, c, sp int, codec string, data []byte, r *clientRep) error {
	conn, err := w.openTraced(tr, c, sp, codec, r)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	log := &echoLog{start: time.Now(), sent: make([]atomic.Int64, len(data)/w.chunk)}
	verified := make(chan error, 1)
	go func() { verified <- w.verify(tr, c, conn, data, log, r) }()

	var wsum time.Duration
	var werr error
	for i := 0; i < len(log.sent) && werr == nil; i++ {
		a := time.Now()
		log.sent[i].Store(int64(a.Sub(log.start)))
		_, werr = conn.Write(data[i*w.chunk : (i+1)*w.chunk])
		if tr != nil {
			wsum += time.Since(a)
			r.writes.add(time.Since(a))
		}
	}
	tr.aggregate("write", sp, log.start, wsum, int64(len(log.sent)))
	if werr == nil {
		cw := tr.begin("close_write", c, sp)
		werr = conn.CloseWrite()
		tr.end(cw)
	}
	if werr != nil {
		// Unblock the reader before waiting for it.
		_ = conn.Close()
		<-verified
		return fmt.Errorf("write: %w", werr)
	}
	d := tr.begin("drain", c, sp)
	defer tr.end(d)
	return <-verified
}

// verify reads the echo of data chunk by chunk, comparing as it goes and
// timing each chunk's round trip into r.latency, then expects the
// server's half-close. Traced, it records the wait for each chunk into
// r.reads and on the client's reader track.
func (w *streamWorkload) verify(tr *tracer, c int, conn *stream.Conn, data []byte, log *echoLog, r *clientRep) error {
	tid := streamClients + c
	tr.track(tid, fmt.Sprintf("client %d reader", c))
	root := tr.group("verify", tid, -1)
	defer tr.end(root)
	start := time.Now()
	var rsum time.Duration
	echo := make([]byte, w.chunk)
	for i := range log.sent {
		a := time.Now()
		if _, err := io.ReadFull(conn, echo); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		e := time.Now()
		if !bytes.Equal(echo, data[i*w.chunk:(i+1)*w.chunk]) {
			return errCorrupt
		}
		r.latency.add(e.Sub(log.start) - time.Duration(log.sent[i].Load()))
		if tr != nil {
			rsum += e.Sub(a)
			r.reads.add(e.Sub(a))
		}
	}
	tr.aggregate("read_wait", root, start, rsum, int64(len(log.sent)))
	return expectEOF(conn)
}

// openTraced opens a stream under client c's span sp, recording the open
// time.
func (w *streamWorkload) openTraced(tr *tracer, c, sp int, codec string, r *clientRep) (*stream.Conn, error) {
	t0 := time.Now()
	o := tr.begin("open", c, sp)
	conn, err := w.open(codec)
	tr.end(o)
	if tr != nil {
		r.opens.add(time.Since(t0))
	}
	return conn, err
}

// finish half-closes a stream and drains the server's half-close.
func finish(tr *tracer, c, sp int, conn *stream.Conn) error {
	cw := tr.begin("close_write", c, sp)
	err := conn.CloseWrite()
	tr.end(cw)
	if err != nil {
		return err
	}
	d := tr.begin("drain", c, sp)
	defer tr.end(d)
	return expectEOF(conn)
}

func (w *streamWorkload) layers() (map[string]float64, repStats, error) {
	m := map[string]float64{
		"stream.open_p50_us":      w.opens.percentile(50) / 1e3,
		"stream.open_p99_us":      w.opens.percentile(99) / 1e3,
		"stream.write_p50_us":     w.writes.percentile(50) / 1e3,
		"stream.read_wait_p50_us": w.reads.percentile(50) / 1e3,
		"stream.wire_app_ratio":   float64(w.wire) / float64(w.app),
		"stream.conn_errors":      float64(w.srv.M.ConnErrors.Load() + w.srv.M.HandshakeErrors.Load()),
	}
	for i, c := range codecs {
		m["stream.goodput_mib_s."+c] = w.codecBytes[i] / (1 << 20) / w.codecSecs[i]
	}
	var st repStats
	if w.bulk {
		var err error
		if st, err = codecTiming(w.payloads[0][0], w.window, m); err != nil {
			return nil, st, err
		}
	}
	return m, st, nil
}

// codecTiming times compress.Stateful Encode and Decode per block over
// data, in its first window blocks ("short" history) and its last
// ("long"), for every codec, and checks every decoded block.
func codecTiming(data []byte, window int, m map[string]float64) (repStats, error) {
	var st repStats
	blocks := len(data) / compress.BlockSize
	inWindow := func(b int) (int, bool) {
		switch {
		case b < window:
			return 0, true
		case b >= blocks-window:
			return 1, true
		}
		return 0, false
	}
	for _, name := range codecs {
		encAlg, err := compress.New(name)
		if err != nil {
			return st, err
		}
		decAlg, err := compress.New(name)
		if err != nil {
			return st, err
		}
		enc, dec := compress.NewStateful(encAlg), compress.NewStateful(decAlg)
		var encNS, decNS [2]time.Duration
		encoded := make([]compress.StatefulBlock, blocks)
		for b := range encoded {
			blk := data[b*compress.BlockSize : (b+1)*compress.BlockSize]
			t0 := time.Now()
			sb := enc.Encode(blk)
			d := time.Since(t0)
			if win, ok := inWindow(b); ok {
				encNS[win] += d
			}
			sb.Payload = append([]byte(nil), sb.Payload...)
			encoded[b] = sb
		}
		st.attempted++
		for b, sb := range encoded {
			t0 := time.Now()
			out, err := dec.Decode(sb)
			d := time.Since(t0)
			if win, ok := inWindow(b); ok {
				decNS[win] += d
			}
			if err != nil || !bytes.Equal(out, data[b*compress.BlockSize:(b+1)*compress.BlockSize]) {
				st.failed++
				fmt.Fprintf(os.Stderr, "e2ebench: codec %s: block %d does not round-trip (%v)\n", name, b, err)
				break
			}
		}
		per := func(d time.Duration) float64 { return float64(d) / float64(window) }
		m["codec."+name+".encode_ns_short"] = per(encNS[0])
		m["codec."+name+".encode_ns_long"] = per(encNS[1])
		m["codec."+name+".decode_ns_short"] = per(decNS[0])
		m["codec."+name+".decode_ns_long"] = per(decNS[1])
	}
	return st, nil
}

func (w *streamWorkload) digests() []string { return nil }

// close drains and stops the server, if one is running.
func (w *streamWorkload) close() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; err == nil {
		err = serr
	}
	w.srv = nil
	return err
}

// payload is client c's slot-th stream input: block by block in turn,
// drifting 64-bit counters, one repeated 32-bit word, zeros and
// pseudorandom words, so every codec meets both its compressible and its
// stored path. It is a function of the seed alone.
func payload(seed int64, c, slot, blocks int) []byte {
	out := make([]byte, blocks*compress.BlockSize)
	s := uint64(seed)*0xD1B54A32D192ED03 ^ uint64(c*len(codecs)+slot+1)*0x9E3779B97F4A7C15
	next := func() uint64 { // splitmix64
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	counter := next()
	for b := 0; b < blocks; b++ {
		blk := out[b*compress.BlockSize : (b+1)*compress.BlockSize]
		switch b % 4 {
		case 0:
			for i := 0; i < len(blk); i += 8 {
				binary.LittleEndian.PutUint64(blk[i:], counter+uint64(i))
			}
			counter += uint64(b%7) + 1
		case 1:
			v := uint32(next())
			for i := 0; i < len(blk); i += 4 {
				binary.LittleEndian.PutUint32(blk[i:], v)
			}
		case 2:
		case 3:
			for i := 0; i < len(blk); i += 8 {
				binary.LittleEndian.PutUint64(blk[i:], next())
			}
		}
	}
	return out
}
