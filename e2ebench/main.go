// Command e2ebench is the end-to-end benchmark of the DISCO reproduction:
// the cycle-level simulator (cmp.New/System.Run and the experiments
// campaign behind discosim) and the streaming compression service
// (stream.Server/stream.Client behind discod, over 127.0.0.1).
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each invocation runs one workload in this one process. It sets up
// several times and reports the median set-up time, warms up, then runs
// closed-loop reps of fixed work until --seconds have been measured. It
// prints every metric as "workload metric value unit" and, as the last
// line of standard output, one JSON object with the fields correct,
// attempted, failed and metrics. Every output is checked: simulation
// results and campaign reports against digests pinned in
// testdata/expected.json (seeds 1 and 2) and against the run's own first
// rep, every echoed stream byte against what was sent. Any failure makes
// the exit status 1.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// first half of the time runs untraced and the second half records spans
// around every call into a layer; the run reports the per-layer metrics,
// the tracing overhead and the share of wall time the layer spans cover,
// and writes the spans as Chrome trace-event JSON.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// metricSpec declares one reported metric. These tables are the names
// and units BENCHMARK.json lists; the smoke test keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees.
// A unit is what the workload completes (simulated cycles, campaign
// cells, echoed 64-byte blocks); an operation is what a user waits for
// (1000 simulated cycles, one campaign, one block's or one 4 KiB chunk's
// round trip).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"allocs_per_unit", "count"},
	{"peak_rss_mib", "MiB"},
}

// codecs is the registry as this benchmark measures it; fixed here so a
// registry change cannot silently reshape the benchmark.
var codecs = [...]string{"delta", "bdi", "fpc", "sfpc", "cpack", "sc2", "fvc", "none"}

// experimentNames are the campaign's steps in RunAll's order.
var experimentNames = []string{"table1", "fig5", "fig6", "fig7", "fig8", "ablation"}

// perLayer lists the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
func perLayer() []metricSpec {
	m := []metricSpec{
		{"noc.step_s", "s"}, {"noc.engine_s", "s"}, {"noc.sa_s", "s"}, {"noc.alloc_s", "s"},
		{"noc.commit_s", "s"}, {"noc.other_s", "s"}, {"noc.ns_per_packet", "ns"},
		{"noc.mesh8_w2_speedup", "x"},
		{"cmp.new_s", "s"}, {"cmp.tick_s", "s"}, {"cmp.ns_per_miss", "ns"},
		{"sim.packets_per_kcycle", "count"}, {"sim.l1_misses_per_kcycle", "count"},
		{"disco.overlap_ratio", "ratio"},
	}
	for _, e := range experimentNames {
		m = append(m, metricSpec{"exp." + e + "_s", "s"})
	}
	m = append(m,
		metricSpec{"simrun.cells_executed", "count"}, metricSpec{"simrun.memo_hit_ratio", "ratio"},
		metricSpec{"stream.open_p50_us", "us"}, metricSpec{"stream.open_p99_us", "us"},
		metricSpec{"stream.write_p50_us", "us"}, metricSpec{"stream.read_wait_p50_us", "us"},
		metricSpec{"stream.wire_app_ratio", "ratio"}, metricSpec{"stream.conn_errors", "count"},
	)
	for _, c := range codecs {
		m = append(m, metricSpec{"stream.goodput_mib_s." + c, "MiB/s"})
	}
	for _, c := range codecs {
		for _, k := range []string{"encode_ns_short", "encode_ns_long", "decode_ns_short", "decode_ns_long"} {
			m = append(m, metricSpec{"codec." + c + "." + k, "ns"})
		}
	}
	return append(m,
		metricSpec{"go.bytes_per_unit", "B"}, metricSpec{"go.gc_per_s", "1/s"},
		metricSpec{"go.gc_pause_ms_per_s", "ms/s"}, metricSpec{"proc.cpu_util", "ratio"},
		metricSpec{"trace.overhead_pct", "%"}, metricSpec{"trace.coverage_pct", "%"},
	)
}

// workload is one benchmark input set. The harness drives every workload
// the same way: set up several times, warm up, then run closed-loop reps
// of fixed work until the measured time is spent.
type workload interface {
	// setup builds the state the reps run on, replacing any earlier one.
	setup() error
	// warm runs a reduced rep so lazy set-up and heap growth finish
	// before timing.
	warm() error
	// rep runs one unit of fixed work, recording spans into tr (nil on
	// untraced reps).
	rep(tr *tracer) (repStats, error)
	// layers returns the per-layer metrics gathered by the traced reps,
	// after running any layer measurement that is not a rep; the
	// operations those measurements check are counted in the repStats.
	layers() (map[string]float64, repStats, error)
	// digests lists "key sha256" for every checked output.
	digests() []string
	close() error
}

// repStats is what one rep did. A failed operation is a simulation that
// errored, an output whose digest is wrong, a corrupt echo or a stream
// error.
type repStats struct {
	units             float64
	latency           hist // per-operation wall time
	attempted, failed int
}

// params configures a run; tiny shrinks every workload for the smoke test.
type params struct {
	seed    int64
	seconds float64
	traced  bool
	tiny    bool
}

// setupReps is how many times the harness sets up; setup_s is the median.
const setupReps = 9

// result is one run's report.
type result struct {
	workload          string
	attempted, failed int
	metrics           map[string]float64
	digests           []string
	tracer            *tracer
	tracedWall        time.Duration // rep time of the traced half
}

// phase accumulates a stretch of reps and the process counters around it.
type phase struct {
	reps              int
	units             float64
	latency           hist
	attempted, failed int
	wall              time.Duration
	mallocs, bytes    uint64
	gcs               uint32
	gcPause           time.Duration
	cpu               time.Duration
}

// measure runs whole reps for about d of rep time: at least one, and
// another only while at least half the mean rep so far fits in what is
// left, so the measured time ends within half a rep of d however long a
// rep is. Each rep starts from a collected heap, as a fresh discosim or
// discoload process would, and only the rep itself is timed and counted.
func measure(w workload, d time.Duration, tr *tracer) (phase, error) {
	var p phase
	var m0, m1 runtime.MemStats
	for p.reps == 0 || p.wall+p.wall/time.Duration(2*p.reps) <= d {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		t0 := time.Now()
		s, err := w.rep(tr)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return p, err
		}
		p.reps++
		p.wall += wall
		p.cpu += cpu
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.bytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += m1.NumGC - m0.NumGC
		p.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		p.units += s.units
		p.latency.merge(&s.latency)
		p.attempted += s.attempted
		p.failed += s.failed
	}
	return p, nil
}

// rate is the phase's units per second.
func (p *phase) rate() float64 { return p.units / p.wall.Seconds() }

// runWorkload sets up, warms up and measures one workload.
func runWorkload(w workload, name string, pr params) (*result, error) {
	defer func() { _ = w.close() }()
	n := setupReps
	if pr.tiny {
		n = 2
	}
	setups := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res := &result{workload: name, metrics: make(map[string]float64)}
	span := time.Duration(pr.seconds * float64(time.Second))
	if !pr.traced {
		p, err := measure(w, span, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = p.attempted, p.failed
		res.metrics["setup_s"] = median(setups)
		res.metrics["units_per_s"] = p.rate()
		res.metrics["latency_p50_ms"] = p.latency.percentile(50) / 1e6
		res.metrics["latency_p99_ms"] = p.latency.percentile(99) / 1e6
		res.metrics["allocs_per_unit"] = float64(p.mallocs) / p.units
		res.metrics["peak_rss_mib"] = rss
		res.digests = w.digests()
		return res, nil
	}

	// Traced run: the first half untraced gives the baseline the tracing
	// overhead is measured against, and the runtime counters; the second
	// half records spans.
	plain, err := measure(w, span/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measure(w, span/2, tr)
	if err != nil {
		return nil, err
	}
	layers, extra, err := w.layers()
	if err != nil {
		return nil, err
	}
	for _, m := range perLayer() {
		res.metrics[m.name] = layers[m.name]
	}
	res.attempted = plain.attempted + traced.attempted + extra.attempted
	res.failed = plain.failed + traced.failed + extra.failed
	res.metrics["go.bytes_per_unit"] = float64(plain.bytes) / plain.units
	res.metrics["go.gc_per_s"] = float64(plain.gcs) / plain.wall.Seconds()
	res.metrics["go.gc_pause_ms_per_s"] = plain.gcPause.Seconds() * 1e3 / plain.wall.Seconds()
	res.metrics["proc.cpu_util"] = plain.cpu.Seconds() / (plain.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	res.metrics["trace.overhead_pct"] = (plain.rate()/traced.rate() - 1) * 100
	res.metrics["trace.coverage_pct"] = tr.coverage() * 100
	res.digests = w.digests()
	res.tracer, res.tracedWall = tr, traced.wall
	return res, nil
}

// newWorkload builds the named workload.
func newWorkload(name string, pr params) (workload, error) {
	switch name {
	case "sim-loaded", "sim-light":
		return newSimWorkload(name, pr)
	case "campaign":
		return newCampaignWorkload(pr)
	case "stream-rtt", "stream-bulk":
		return newStreamWorkload(name, pr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// workloadNames lists the workloads, as BENCHMARK.json does.
var workloadNames = []string{"sim-loaded", "sim-light", "campaign", "stream-rtt", "stream-bulk"}

func realMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace-event JSON of a traced run "+
		"(default .bench_build/e2ebench-trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	pr := params{seed: *seed, seconds: *seconds, traced: *traceFlag == 1}
	w, err := newWorkload(*name, pr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	res, err := runWorkload(w, *name, pr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	if res.tracer != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("e2ebench-trace-%s-%d.json", *name, *seed))
		}
		if err := res.tracer.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "e2ebench: trace written to %s\n", path)
	}
	if err := report(os.Stdout, res, pr.traced); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// report prints the digests and metrics, then the JSON result line.
func report(out io.Writer, res *result, traced bool) error {
	for _, d := range res.digests {
		if _, err := fmt.Fprintf(out, "%s digest %s\n", res.workload, d); err != nil {
			return err
		}
	}
	specs := endToEnd
	if traced {
		specs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, m := range specs {
		v, ok := res.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", m.name)
		}
		metrics[m.name] = value{v, m.unit}
		if _, err := fmt.Fprintf(out, "%s %s %s %s\n", res.workload, m.name,
			strconv.FormatFloat(v, 'g', -1, 64), m.unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// median returns the middle of xs (the mean of the two middles when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
