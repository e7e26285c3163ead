// Package simrun schedules full-system simulation cells over a bounded
// worker pool with single-flight result memoization.
//
// A cell is one (mode, algorithm, benchmark, configuration) simulation —
// the unit every figure harness in internal/experiments iterates over.
// Cells are embarrassingly parallel (each cmp.System is self-contained
// and deterministic for a fixed seed), so the runner executes them
// concurrently; because results are reduced by the caller in submission
// order, every table, figure, CSV and metrics artifact is byte-identical
// to a serial run regardless of worker count.
//
// The memo cache dedupes repeated cells within and across experiments in
// one process: Fig. 5, Fig. 7 and the ablation all need the same
// Ideal/CC/CNC delta baselines, and re-running them is pure waste. The
// cache is single-flight — two submissions of the same Key share one
// simulation even when both arrive before it finishes.
//
// One optional layer makes campaigns crash-safe (DESIGN.md §13): SetStore
// attaches a persistent content-addressed tier (internal/store) consulted
// behind the in-process map, so a killed campaign resumes from disk
// instead of from zero. Only successful results are ever persisted; a
// corrupt entry quarantines and recomputes. A plain New runner has no
// store.
//
// A cell runs once. A cell is a seeded, deterministic simulation, so a
// failure (a panic included) would recur on every attempt: it surfaces
// as a *CellError, fails its own future and cancels the queued cells.
package simrun

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/store"
)

// ErrInterrupted marks cells canceled by a graceful drain: Interrupt
// stops the runner from starting queued cells, and every such cell's
// future fails with an error wrapping this sentinel. A campaign that
// exits on it is resumable — completed cells are already durable in
// the persistent store.
var ErrInterrupted = errors.New("simrun: campaign interrupted")

// Runner executes simulation cells on a bounded worker pool. Queued
// cells run in FIFO submission order (with one worker this is exactly
// the serial harness's execution order); workers are spawned on demand
// and exit when the queue drains, so an idle runner holds no goroutines.
type Runner struct {
	workers int

	mu        sync.Mutex
	idle      *sync.Cond // broadcast when the last worker exits
	queue     []*job
	active    int           // running worker goroutines
	cache     map[Key]*cell // single-flight memo (nil when memoization is off)
	submitted uint64
	hits      uint64
	executed  uint64
	done      uint64 // cells completed (simulated, replayed or canceled)
	canceled  bool
	firstErr  error
	drained   bool // Interrupt called: stop starting queued cells

	store    *store.Store  // persistent second tier (nil = off)
	observer func(Outcome) // campaign bookkeeping hook
}

// job pairs a cell with its key and the closure that simulates it.
type job struct {
	c   *cell
	key Key
	run func() (cmp.Results, error)
}

// cell is one in-flight or completed simulation shared by all futures
// with the same Key.
type cell struct {
	done chan struct{}
	res  cmp.Results
	err  error
}

// Future is a handle to one submitted cell.
type Future struct{ c *cell }

// Wait blocks until the cell completes and returns its result. Waiting
// in submission order yields exactly the serial harness's reduction
// order, which is what keeps artifacts byte-identical.
func (f *Future) Wait() (cmp.Results, error) {
	<-f.c.done
	return f.c.res, f.c.err
}

// Stats summarizes a runner's activity.
type Stats struct {
	// Submitted counts Submit calls.
	Submitted uint64
	// Hits counts submissions served from the in-process memo cache
	// (including joins on a still-running cell).
	Hits uint64
	// DiskHits counts cells replayed from the persistent store instead
	// of simulated (0 without SetStore).
	DiskHits uint64
	// Executed counts cells actually simulated.
	Executed uint64
	// Quarantined counts persistent-store entries renamed aside after
	// failing verification (each one was recomputed, never replayed).
	Quarantined uint64
	// Done counts distinct cells whose futures have completed (simulated
	// or canceled) — the live campaign-progress number the obs /status
	// endpoint reports while experiments run.
	Done uint64
}

// Outcome describes one completed distinct cell for campaign
// bookkeeping (manifests): memo-cache joins do not produce outcomes,
// disk replays and cancellations do.
type Outcome struct {
	Key Key
	// FromDisk marks results replayed from the persistent store.
	FromDisk bool
	// Attempts is 1 for a simulated cell and 0 when nothing ran (disk
	// replays and cancellations).
	Attempts int
	// Err is the terminal error: nil for done cells, wrapping
	// ErrInterrupted for drained cells, the cancellation cause for
	// cells canceled after an earlier failure, a *CellError otherwise.
	Err error
}

// New returns a runner with the given worker count (<= 0 selects
// runtime.GOMAXPROCS(0)) and, when memo is true, an in-process
// single-flight result cache.
func New(workers int, memo bool) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{workers: workers}
	r.idle = sync.NewCond(&r.mu)
	if memo {
		r.cache = make(map[Key]*cell)
	}
	return r
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return r.workers }

// Memoized reports whether the result cache is enabled.
func (r *Runner) Memoized() bool { return r.cache != nil }

// SetStore attaches a persistent result store as the second cache tier.
// Call before the first Submit.
func (r *Runner) SetStore(s *store.Store) { r.store = s }

// Store returns the attached persistent store (nil when off).
func (r *Runner) Store() *store.Store { return r.store }

// SetObserver installs a campaign bookkeeping hook invoked (from
// worker goroutines, unsynchronized with each other) once per distinct
// completed cell. Call before the first Submit.
func (r *Runner) SetObserver(fn func(Outcome)) { r.observer = fn }

// Stats snapshots the activity counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	st := Stats{Submitted: r.submitted, Hits: r.hits, Executed: r.executed, Done: r.done}
	r.mu.Unlock()
	if r.store != nil {
		ss := r.store.Stats()
		st.DiskHits = ss.Hits
		st.Quarantined = ss.Quarantined
	}
	return st
}

// Interrupt begins a graceful drain: in-flight cells finish (and their
// results are persisted when a store is attached), queued cells are
// canceled with an error wrapping ErrInterrupted, and new submissions
// are canceled on arrival. Safe to call from a signal handler
// goroutine; idempotent.
func (r *Runner) Interrupt() {
	r.mu.Lock()
	r.drained = true
	r.mu.Unlock()
}

// Quiesce blocks until no cell is queued or executing — after an
// Interrupt this is the "finish in-flight cells" barrier a graceful
// shutdown waits on before flushing the campaign manifest.
func (r *Runner) Quiesce() {
	r.mu.Lock()
	for r.active > 0 || len(r.queue) > 0 {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// Submit schedules run under key and returns a future for its result.
// Identical keys are single-flighted: only the first submission
// simulates, later ones share the same cell (volatile keys always run).
// After any cell fails terminally, queued cells are canceled with an
// error that wraps the first failure.
func (r *Runner) Submit(key Key, run func() (cmp.Results, error)) *Future {
	r.mu.Lock()
	r.submitted++
	if r.cache != nil && !key.Volatile {
		if c, ok := r.cache[key]; ok {
			r.hits++
			r.mu.Unlock()
			return &Future{c}
		}
	}
	c := &cell{done: make(chan struct{})}
	if r.cache != nil && !key.Volatile {
		r.cache[key] = c
	}
	r.queue = append(r.queue, &job{c: c, key: key, run: run})
	if r.active < r.workers {
		r.active++
		go r.drain()
	}
	r.mu.Unlock()
	return &Future{c}
}

// drain is one worker: it pops queued cells FIFO until none remain.
func (r *Runner) drain() {
	for {
		r.mu.Lock()
		if len(r.queue) == 0 {
			r.active--
			if r.active == 0 {
				r.idle.Broadcast()
			}
			r.mu.Unlock()
			return
		}
		j := r.queue[0]
		r.queue = r.queue[1:]
		canceled, firstErr, drained := r.canceled, r.firstErr, r.drained
		r.mu.Unlock()
		switch {
		case drained:
			r.finish(j, cmp.Results{}, fmt.Errorf("simrun: cell canceled by drain: %w", ErrInterrupted),
				Outcome{Key: j.key, Err: ErrInterrupted})
			continue
		case canceled:
			err := fmt.Errorf("simrun: canceled after earlier failure: %w", firstErr)
			r.finish(j, cmp.Results{}, err, Outcome{Key: j.key, Err: err})
			continue
		}
		// Persistent tier: replay a durably cached result instead of
		// simulating. Get verifies the entry end to end; corruption
		// quarantines and falls through to recomputation.
		if r.store != nil && !j.key.Volatile {
			if res, ok := r.store.Get(j.key.Canonical()); ok {
				r.finish(j, res, nil, Outcome{Key: j.key, FromDisk: true})
				continue
			}
		}
		r.mu.Lock()
		r.executed++
		r.mu.Unlock()
		res, err := runCell(j.run)
		if err != nil {
			res, err = cmp.Results{}, &CellError{Key: j.key, Err: err}
		} else if r.store != nil && !j.key.Volatile {
			// A failed Put is counted by the store and must not fail the
			// cell: the result is in hand, only its durability is lost.
			_ = r.store.Put(j.key.Canonical(), res)
		}
		r.finish(j, res, err, Outcome{Key: j.key, Attempts: 1, Err: err})
	}
}

// finish completes one distinct cell: publish the result, drop errored
// cells from the memo cache (a failure must never be replayed as if it
// were a result), arm cancellation on terminal failures, and notify
// the campaign observer.
func (r *Runner) finish(j *job, res cmp.Results, err error, out Outcome) {
	j.c.res, j.c.err = res, err
	r.mu.Lock()
	if err != nil {
		if r.cache != nil && r.cache[j.key] == j.c {
			delete(r.cache, j.key)
		}
		if !r.canceled && !errors.Is(err, ErrInterrupted) {
			r.canceled, r.firstErr = true, err
		}
	}
	r.done++
	r.mu.Unlock()
	close(j.c.done)
	if r.observer != nil {
		r.observer(out)
	}
}

// CellError is a simulated cell's failure. It wraps the cell's own
// error, or a *PanicError when the cell panicked.
type CellError struct {
	Key Key
	Err error
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("simrun: cell %s failed: %v", e.Key, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// PanicError is a cell panic converted into an ordinary error: one
// pathological configuration must fail its own future (and cancel the
// queue like any other failure), not tear down the worker goroutine and
// every sibling experiment with it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack),
	// captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("simrun: cell panicked: %v", e.Value)
}

// runCell invokes one cell's simulation closure, converting a panic into
// a *PanicError result.
func runCell(run func() (cmp.Results, error)) (res cmp.Results, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = cmp.Results{}, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return run()
}
