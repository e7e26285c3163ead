package disco

import (
	"encoding/binary"
	"fmt"

	"github.com/disco-sim/disco/internal/compress"
)

// JobKind distinguishes the engine's two operations.
type JobKind int

// Engine job kinds.
const (
	JobCompress JobKind = iota
	JobDecompress
)

// String implements fmt.Stringer.
func (k JobKind) String() string {
	if k == JobCompress {
		return "compress"
	}
	return "decompress"
}

// JobState is the lifecycle of an engine job.
type JobState int

// Engine job states.
const (
	// JobPending: the engine is within the initial latency window; the
	// shadow packet is still released on a mis-predicted grant
	// (non-blocking compression).
	JobPending JobState = iota
	// JobCommitted: the result is being produced / fragments are being
	// absorbed; the packet must wait for completion.
	JobCommitted
	// JobDone: the transformed packet is ready to replace its shadow.
	JobDone
	// JobAborted: the job was invalidated (non-blocking release or
	// incompressible content).
	JobAborted
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobCommitted:
		return "committed"
	case JobDone:
		return "done"
	case JobAborted:
		return "aborted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one de/compression operation on one packet. PacketID ties it back
// to the router's packet; the engine never dereferences router state.
type Job struct {
	Kind     JobKind
	PacketID uint64
	State    JobState

	// Faulted marks a job hit by an injected transient engine fault: it
	// stays busy (and pending, so the shadow remains releasable) for the
	// engine's stuck window, then aborts. The router distinguishes these
	// aborts from content failures — a faulted packet is NOT latched
	// incompressible, and they feed the per-router circuit breaker.
	Faulted bool

	startCycle uint64
	latency    int

	// Compression bookkeeping.
	inc       *compress.IncrementalDelta // strict separate-flit mode (delta)
	streamBuf []byte                     // generic streaming mode
	absorbed  int                        // payload flits absorbed
	total     int                        // payload flits expected
	block     []byte                     // the packet's content (SetBlock)
	result    compress.Compressed        // Payload aliases enc
	haveRes   bool
	enc       [compress.BlockSize]byte // encode scratch

	// Decompression bookkeeping.
	src     compress.Compressed
	decoded [compress.BlockSize]byte
}

// Engine is the single per-router de/compression unit of Fig. 2(a). It
// processes one job at a time; the DISCO arbitrator refuses new candidates
// while it is busy.
type Engine struct {
	alg compress.Algorithm
	cur *Job

	// retired is the most recently finished (or dropped) job, recycled at
	// the next Start*: the Job struct, its IncrementalDelta and its stream
	// buffer are reused, so an engine starts jobs without allocating.
	// Callers may read a finished job's fields only until the next
	// Start* on the same engine — the cycle engine consumes results
	// within the stage that collected them, so this is never observable.
	retired *Job

	// faultFn, when non-nil, is consulted at job start: true marks the
	// job Faulted (see Job.Faulted). stuckCycles is the busy window a
	// faulted job holds the engine before aborting. The oracle is a plain
	// closure so the engine stays decoupled from the fault package.
	faultFn     func() bool
	stuckCycles int

	// Stats.
	Compressions   uint64
	Decompressions uint64
	Aborts         uint64
	Failures       uint64 // incompressible content discovered mid-job
	Faults         uint64 // injected transient faults (stuck-busy aborts)
	BusyCycles     uint64
}

// NewEngine builds an engine around the configured algorithm. Delta
// engines use the paper's strict Δ1 incremental mode for separate
// compression; other algorithms stream words through their regular
// pipeline.
func NewEngine(alg compress.Algorithm) *Engine {
	_, isDelta := alg.(*compress.Delta)
	// The engine's one Job is built here with its scratch at full size,
	// so no job start allocates, not even the first.
	j := &Job{}
	if isDelta {
		j.inc = compress.NewIncrementalDelta()
	} else {
		j.streamBuf = make([]byte, 0, compress.BlockSize)
	}
	return &Engine{alg: alg, retired: j}
}

// Algorithm returns the engine's compressor.
func (e *Engine) Algorithm() compress.Algorithm { return e.alg }

// SetFaultOracle arms fault injection: f is consulted once per started
// job, and a faulted job stays stuck-busy for stuck cycles before
// aborting. Pass nil to disarm.
func (e *Engine) SetFaultOracle(f func() bool, stuck int) {
	e.faultFn = f
	if stuck < 1 {
		stuck = 1
	}
	e.stuckCycles = stuck
}

// Busy reports whether a job is in flight.
func (e *Engine) Busy() bool { return e.cur != nil }

// Current returns the in-flight job, or nil.
func (e *Engine) Current() *Job { return e.cur }

// retire hands a job that just left the engine to the recycler.
func (e *Engine) retire(j *Job) {
	e.cur = nil
	e.retired = j
}

// takeJob returns the engine's one Job, zeroed but keeping its
// incremental scratch. NewEngine builds it, and every finished or dropped
// job is retired, so it is there whenever the engine is idle.
func (e *Engine) takeJob() *Job {
	j := e.retired
	e.retired = nil
	inc, buf := j.inc, j.streamBuf
	*j = Job{inc: inc, streamBuf: buf[:0]}
	if inc != nil {
		inc.Reset()
	}
	return j
}

// StartCompress begins compressing a packet whose payload will arrive as
// totalFlits 8-byte flits. The engine is seeded with the flits already
// resident (possibly all of them). Returns the job, or nil if the engine
// is busy.
func (e *Engine) StartCompress(pktID uint64, resident []uint64, totalFlits int, now uint64) *Job {
	if e.cur != nil {
		return nil
	}
	j := e.takeJob()
	j.Kind = JobCompress
	j.PacketID = pktID
	j.startCycle = now
	j.latency = e.alg.CompLatency()
	j.total = totalFlits
	if e.faultFn != nil && e.faultFn() {
		j.Faulted = true
	}
	e.cur = j
	e.absorb(resident)
	return j
}

// StartDecompress begins decompressing a fully resident packet.
func (e *Engine) StartDecompress(pktID uint64, src compress.Compressed, now uint64) *Job {
	if e.cur != nil {
		return nil
	}
	j := e.takeJob()
	j.Kind = JobDecompress
	j.PacketID = pktID
	j.startCycle = now
	j.latency = e.alg.DecompLatency()
	j.src = src
	if e.faultFn != nil && e.faultFn() {
		j.Faulted = true
	}
	e.cur = j
	return j
}

// Absorb feeds newly arrived payload flits of the in-flight compression
// job (separate compression, Section 3.3A).
func (e *Engine) Absorb(flits []uint64) {
	if e.cur == nil || e.cur.Kind != JobCompress {
		panic("disco: Absorb without a compression job")
	}
	e.absorb(flits)
}

// absorb feeds flits into whichever incremental backend the job uses.
func (e *Engine) absorb(flits []uint64) {
	j := e.cur
	if j.State == JobAborted || j.Faulted {
		// A faulted job will abort after its stuck window regardless of
		// content; don't let the content path abort it first (that would
		// mask the fault and skip the stuck-busy cost).
		return
	}
	j.absorbed += len(flits)
	if j.absorbed > j.total {
		panic("disco: absorbed more flits than the packet holds")
	}
	if j.inc != nil {
		if !j.inc.Absorb(flits) {
			j.State = JobAborted
			e.Failures++
			return
		}
		return
	}
	for _, f := range flits {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], f)
		j.streamBuf = append(j.streamBuf, b[:]...)
	}
}

// Tick advances the engine one cycle and returns a finished job exactly
// once (state JobDone or JobAborted), or nil. now is the current cycle.
func (e *Engine) Tick(now uint64) *Job {
	j := e.cur
	if j == nil {
		return nil
	}
	e.BusyCycles++
	if j.Faulted {
		// Injected transient fault: the engine is stuck busy for the
		// configured window, the job stays pending (shadow releasable the
		// whole time), then it aborts.
		if now >= j.startCycle+uint64(e.stuckCycles) {
			j.State = JobAborted
			e.Faults++
			e.retire(j)
			return j
		}
		return nil
	}
	if j.State == JobAborted {
		e.retire(j)
		return j
	}
	latencyMet := now >= j.startCycle+uint64(j.latency)
	if !latencyMet {
		return nil
	}
	// Past the initial latency window the result is committed: a
	// mis-predicted grant can no longer release the shadow.
	if j.State == JobPending {
		j.State = JobCommitted
	}
	switch j.Kind {
	case JobCompress:
		if j.absorbed < j.total {
			return nil // waiting for upstream fragments
		}
		if !j.haveRes {
			if j.inc != nil {
				if !j.inc.Done() {
					j.State = JobAborted
					e.Failures++
					e.retire(j)
					return j
				}
				// Round-trippable result: re-encode with the whole-block
				// compressor but charge the merged incremental size.
				res := e.alg.AppendCompress(j.enc[:0], j.streamedBlock())
				res.SizeBits = j.inc.MergedSizeBits()
				j.result = res
			} else {
				res := e.alg.AppendCompress(j.enc[:0], j.streamedBlock())
				if res.Stored {
					j.State = JobAborted
					e.Failures++
					e.retire(j)
					return j
				}
				j.result = res
			}
			j.haveRes = true
		}
		j.State = JobDone
		e.Compressions++
		e.retire(j)
		return j
	case JobDecompress:
		if err := e.alg.DecompressInto(&j.decoded, j.src); err != nil {
			j.State = JobAborted
			e.Failures++
			e.retire(j)
			return j
		}
		j.State = JobDone
		e.Decompressions++
		e.retire(j)
		return j
	}
	return nil
}

// streamedBlock reconstructs the absorbed payload for the whole-block
// fallback encoder. For strict incremental jobs the flits were consumed by
// IncrementalDelta, so the router re-supplies the block via SetBlock before
// completion; see SetBlock.
func (j *Job) streamedBlock() []byte {
	if len(j.block) == compress.BlockSize {
		return j.block
	}
	if len(j.streamBuf) != compress.BlockSize {
		panic("disco: compression job completed without a full block")
	}
	return j.streamBuf
}

// SetBlock supplies the packet's uncompressed content for jobs whose
// incremental backend does not retain bytes (strict delta mode). The
// router owns the functional payload, so this is a cheap reference pass.
func (j *Job) SetBlock(block []byte) { j.block = block }

// Result returns the compressed encoding of a finished compression job.
// Its Payload lives in the job's scratch, which the next Start* on the
// engine reuses: a caller that keeps the payload copies it out first.
func (j *Job) Result() compress.Compressed {
	if !j.haveRes {
		panic("disco: Result on unfinished job")
	}
	return j.result
}

// Block returns the decompressed content of a finished decompression job.
// Like Result's payload it lives in the job and is valid only until the
// next Start* on the engine.
func (j *Job) Block() []byte { return j.decoded[:] }

// CanRelease reports whether a mis-predicted grant may release the shadow
// packet (non-blocking compression): only while the job is still pending.
func (e *Engine) CanRelease(pktID uint64) bool {
	return e.cur != nil && e.cur.PacketID == pktID && e.cur.State == JobPending
}

// Release aborts the in-flight job for pktID (shadow released to SA). The
// caller must have checked CanRelease; Release on a committed job panics.
//
// A Faulted job is the exception: the packet's shadow is released as
// usual (the packet escapes — that is the graceful-degradation path),
// but the fault wedged the hardware, not the packet, so the engine stays
// stuck-busy for the remainder of its fault window. Tick still reports
// the faulted job once the window elapses, so the router's fault
// accounting and circuit breaker see every injected fault even when the
// victim packet left early.
func (e *Engine) Release(pktID uint64) {
	if !e.CanRelease(pktID) {
		panic("disco: Release on non-releasable job")
	}
	if e.cur.Faulted {
		return
	}
	e.retire(e.cur)
	e.Aborts++
}

// DropIfCurrent aborts whatever job is running for pktID regardless of
// state; used when the packet is torn down (e.g. simulation drain).
func (e *Engine) DropIfCurrent(pktID uint64) {
	if e.cur != nil && e.cur.PacketID == pktID {
		e.retire(e.cur)
		e.Aborts++
	}
}
