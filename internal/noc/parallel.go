package noc

import (
	"sync"
	"sync/atomic"

	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/tracefmt"
)

// This file is the parallel half of the two-phase cycle engine (see
// DESIGN.md §9). Every pipeline stage is split into a COMPUTE part that
// reads only prior-cycle state and writes only router-local state (so
// routers can be processed in any order, including concurrently) and a
// COMMIT part that applies the staged effects serially in canonical
// router-index order. The serial engine and the parallel engine run the
// exact same code — the pool only changes which goroutine executes a
// router's compute — so artifacts are byte-identical at any worker count.

// workerPool shards a stage's per-router compute across a bounded set of
// goroutines. The pool follows internal/simrun's worker conventions:
// fixed goroutines parked on wake channels, an atomic cursor handing out
// indices, and the caller participating as one of the workers.
type workerPool struct {
	extra int // parked goroutines; total workers = extra + the caller
	wake  []chan struct{}
	wg    sync.WaitGroup

	// Per-run job state: written by the caller before the wake sends
	// (which publish it to the workers) and read-only during the run.
	// The stage's inputs are pool fields rather than a closure so a Step
	// allocates nothing per stage.
	routers []*Router
	busy    []bool
	fn      func(*Router)
	n       int
	cursor  atomic.Int64

	// Profiling inputs for the current run (nil prof = disarmed), set by
	// the caller with the rest of the job state: each worker attributes
	// its own work() span to (its lane, phase). Published to the workers
	// by the wake sends like every other job field.
	prof  *obs.PhaseProfiler
	phase obs.Phase
}

// newWorkerPool starts extra parked worker goroutines.
func newWorkerPool(extra int) *workerPool {
	p := &workerPool{extra: extra, wake: make([]chan struct{}, extra)}
	for i := range p.wake {
		ch := make(chan struct{}, 1)
		p.wake[i] = ch
		// Worker i samples into profiler lane i+1 (lane 0 is the caller).
		lane := i + 1
		go func() {
			for range ch {
				if prof := p.prof; prof != nil {
					start := obs.Clock()
					p.work()
					prof.Observe(lane, p.phase, start)
				} else {
					p.work()
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// poolChunk is how many indices a worker claims per cursor bump. Router
// computes are short, so claiming one at a time would spend more on
// cache-line contention over the cursor than on the work; a modest chunk
// amortizes it while still balancing load across workers.
const poolChunk = 8

// run applies fn to every busy router, sharded across the workers, and
// returns once all calls completed (the commit barrier). With a profiler
// armed, the caller attributes its own share to (lane 0, phase) and the
// wait for the other workers to PhaseBarrier; the parked workers stamp
// their own lanes (see newWorkerPool).
func (p *workerPool) run(routers []*Router, busy []bool, fn func(*Router), prof *obs.PhaseProfiler, phase obs.Phase) {
	p.routers, p.busy, p.fn, p.n = routers, busy, fn, len(routers)
	p.prof, p.phase = prof, phase
	p.cursor.Store(0)
	p.wg.Add(p.extra)
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	if prof == nil {
		p.work() // the calling goroutine is a worker too
		p.wg.Wait()
	} else {
		start := obs.Clock()
		p.work()
		wait := obs.Clock()
		prof.Observe(0, phase, start)
		p.wg.Wait()
		prof.Observe(0, obs.PhaseBarrier, wait)
	}
	p.routers, p.busy, p.fn, p.prof = nil, nil, nil, nil
}

// work drains chunks of indices until the cursor runs past the job size.
func (p *workerPool) work() {
	for {
		end := int(p.cursor.Add(poolChunk))
		start := end - poolChunk
		if start >= p.n {
			return
		}
		if end > p.n {
			end = p.n
		}
		for i := start; i < end; i++ {
			if p.busy[i] {
				p.fn(p.routers[i])
			}
		}
	}
}

// stop releases the parked goroutines. The pool must be idle.
func (p *workerPool) stop() {
	for _, ch := range p.wake {
		close(ch)
	}
}

// SetWorkers configures phase-1 compute parallelism for subsequent Steps:
// workers <= 1 runs compute inline (the serial engine), larger counts
// shard it across a pool of that many workers (the calling goroutine
// included). Results are byte-identical at any setting. A pool holds
// parked goroutines; call Close (or SetWorkers(1)) when done with a
// parallel network to release them.
func (n *Network) SetWorkers(workers int) {
	if n.pool != nil {
		if workers == n.pool.extra+1 {
			return
		}
		n.pool.stop()
		n.pool = nil
	}
	if workers > 1 {
		n.pool = newWorkerPool(workers - 1)
	}
}

// Workers reports the configured phase-1 worker count (1 = serial).
func (n *Network) Workers() int {
	if n.pool == nil {
		return 1
	}
	return n.pool.extra + 1
}

// Close releases the worker-pool goroutines (no-op on a serial network).
// The network remains usable afterwards on the serial engine.
func (n *Network) Close() { n.SetWorkers(1) }

// RunParallel is RunUntilQuiescent with the per-cycle compute phase
// sharded across workers; the commit phase stays serial in canonical
// router order, so traces, stats and metrics are byte-identical to a
// serial run. The previous worker setting is restored on return.
func (n *Network) RunParallel(workers int, maxCycles uint64) bool {
	prev := n.Workers()
	n.SetWorkers(workers)
	ok := n.RunUntilQuiescent(maxCycles)
	n.SetWorkers(prev)
	return ok
}

// AtCommitBoundary reports whether the network is between cycles: all
// staged effects of the previous Step are committed and no compute is in
// flight. Observers (stats, snapshots, the cmp progress watchdog) must
// only sample at commit boundaries — mid-step state is partially staged
// and, on the parallel engine, written concurrently.
func (n *Network) AtCommitBoundary() bool { return !n.stepping }

// runStage applies f to every busy router: inline in index order on the
// serial engine, sharded across the pool otherwise. f must follow the
// compute-phase contract — read prior-cycle state, write only
// router-local state (staged effects, own scratch, own VC/engine fields).
// ph names the stage for the profiler (ignored when disarmed).
func (n *Network) runStage(busy []bool, ph obs.Phase, f func(*Router)) {
	if n.pool == nil {
		start := n.profClock()
		for i, r := range n.Routers {
			if busy[i] {
				f(r)
			}
		}
		if n.prof != nil {
			n.prof.Observe(0, ph, start)
		}
		return
	}
	n.pool.run(n.Routers, busy, f, n.prof, ph)
}

// flushTraces replays the trace events staged by a parallel compute
// region in canonical order: routers by index, events in program order.
// On the serial engine compute-phase traces emit inline (Router.trace)
// and the buffers are always empty — see the trace comment for why the
// two renderings are byte-identical anyway.
func (n *Network) flushTraces(busy []bool) {
	if n.pool == nil {
		return
	}
	for i, r := range n.Routers {
		if !busy[i] {
			continue
		}
		for j := range r.traceBuf {
			st := &r.traceBuf[j]
			n.trace(r.id, st.kind, st.pkt)
			st.pkt = nil
		}
		r.traceBuf = r.traceBuf[:0]
	}
}

// stagedTrace is one trace event deferred to the next serial flush: the
// trace call both stamps the packet's Lifetime and feeds the tracer, and
// neither may run concurrently (packets can be visible to two routers).
type stagedTrace struct {
	kind tracefmt.Kind
	pkt  *Packet
}

// trace records an event from a compute phase: inline on the serial
// engine, staged for the canonical-order flush on the parallel one.
// The renderings match byte for byte because every compute-phase trace
// call sits AFTER its branch's packet mutations and nothing else in the
// stage may write the packet (stage exclusivity), so the packet state
// at the call already equals the end-of-stage state the flush sees.
// Commit phases call Network.trace directly (they already run in
// canonical order). Staging on the serial engine too would drop this
// branch, but it costs ~7 % per simulated cycle (DESIGN.md §9).
func (r *Router) trace(kind tracefmt.Kind, pkt *Packet) {
	if r.net.pool == nil {
		r.net.trace(r.id, kind, pkt)
		return
	}
	if pkt == nil && r.net.tracer == nil {
		return // nothing to stamp, nothing to emit
	}
	r.traceBuf = append(r.traceBuf, stagedTrace{kind: kind, pkt: pkt})
}
