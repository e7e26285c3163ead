package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer and writes them as Chrome trace-event JSON when the run ends.
// Calls made once per block are folded into one aggregate span per
// stream carrying their count, so every call is timed while the trace
// stays small; the NoC profiler's phase totals become aggregate children
// of the System.Run span the same way.
//
// A nil *tracer records nothing, so untraced reps call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	names map[int]string // track (Chrome tid) names
}

// span is one timed region. Each track's reps are root spans (parent
// -1); a child lies inside its parent and children of one parent do
// not overlap. A layer span times a call into a layer; a grouping span
// (a rep, a stream, a reader) only holds layer spans, and its self time
// is the benchmark's own work.
type span struct {
	name   string
	tid    int
	parent int
	start  int64 // ns since epoch
	dur    int64
	count  int64 // calls folded into an aggregate span; 0 for one call
	group  bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), names: make(map[int]string)}
}

// track names a track.
func (t *tracer) track(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[tid] = name
	t.mu.Unlock()
}

// begin opens a layer span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, tid, parent int) int {
	return t.open(span{name: name, tid: tid, parent: parent})
}

// group opens a grouping span and returns its id (-1 on a nil tracer).
func (t *tracer) group(name string, tid, parent int) int {
	return t.open(span{name: name, tid: tid, parent: parent, group: true})
}

func (t *tracer) open(s span) int {
	if t == nil {
		return -1
	}
	s.start = int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].dur = now - t.spans[id].start
	t.mu.Unlock()
}

// aggregate records count calls totalling dur as one child of parent,
// placed at the given start.
func (t *tracer) aggregate(name string, parent int, start time.Time, dur time.Duration, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, tid: t.spans[parent].tid, parent: parent,
		start: int64(start.Sub(t.epoch)), dur: int64(dur), count: count})
}

// selfTimes returns each span's duration minus its direct children's:
// the time attributed to that layer alone.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// layerTimes returns, per root span, the part of its time layer spans
// cover: the sum of the self times of the layer spans under it. The rest
// is the self time of grouping spans, the benchmark's own work. A span's
// parent always precedes it.
func (t *tracer) layerTimes() map[int]int64 {
	self := t.selfTimes()
	root := make([]int, len(t.spans))
	layers := make(map[int]int64)
	for i, s := range t.spans {
		root[i] = i
		if s.parent >= 0 {
			root[i] = root[s.parent]
		}
		if !s.group {
			layers[root[i]] += self[i]
		}
	}
	return layers
}

// coverage is the share of the root spans' time the layer spans cover.
func (t *tracer) coverage() float64 {
	var roots, layers int64
	for _, s := range t.spans {
		if s.parent < 0 {
			roots += s.dur
		}
	}
	for _, l := range t.layerTimes() {
		layers += l
	}
	if roots == 0 {
		return 0
	}
	return float64(layers) / float64(roots)
}

// writeFile writes the spans as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing). Times are microseconds.
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	self := t.selfTimes()
	events := make([]event, 0, len(t.spans)+len(t.names))
	for tid, name := range t.names {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	for i, s := range t.spans {
		args := map[string]any{"self_us": float64(self[i]) / 1e3}
		if s.count > 0 {
			args["calls"] = s.count
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.dur) / 1e3, Pid: 1, Tid: s.tid, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
