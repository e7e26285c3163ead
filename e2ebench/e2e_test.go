package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateExpected = flag.Bool("update-expected", false,
	"rewrite testdata/expected.json from full-size runs of seeds 1 and 2")

// benchmarkFile is the part of ../BENCHMARK.json the benchmark must match.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatches holds BENCHMARK.json to the workloads and
// metric tables this program reports, within the declared limits.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	seen := make(map[string]bool)
	for _, n := range append(append([]string(nil), names...), specNames(endToEnd)...) {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program reports %d", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func specNames(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, m := range specs {
		out[i] = m.name
	}
	return out
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the report: the result line carries every declared metric with
// its unit, nothing failed, and the traced spans account for the
// measured wall time.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				// A traced run spends half its time untraced; the other half
				// holds a few reps, so one host stall cannot dominate the
				// span accounting.
				pr := params{seed: 3, seconds: 0.05, traced: traced, tiny: true}
				if traced {
					pr.seconds = 0.4
				}
				w, err := newWorkload(name, pr)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runWorkload(w, name, pr)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("%d of %d operations failed", res.failed, res.attempted)
				}
				checkReport(t, res, traced)
				if traced {
					checkSpans(t, name, res)
				}
			})
		}
	}
}

// checkReport parses the result line and compares it with the tables.
func checkReport(t *testing.T, res *result, traced bool) {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, res, traced); err != nil {
		t.Fatalf("%s: %v", res.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result: %v", res.workload, err)
	}
	specs := endToEnd
	if traced {
		specs = perLayer()
	}
	if !line.Correct || line.Attempted != res.attempted || len(line.Metrics) != len(specs) {
		t.Errorf("%s: result line %+v", res.workload, line)
	}
	for _, m := range specs {
		got, ok := line.Metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
			t.Errorf("%s: metric %s = %+v, want unit %s", res.workload, m.name, got, m.unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.workload, m.name, got.Value)
		}
	}
}

// checkSpans checks the traced reps' spans: every child fits in its
// parent, the layer spans cover at least 95% of the reps, and the layer
// spans' self times add up to the traced wall time within 5%, counting
// each rep's slowest track (the k-th rep span of every track is rep k).
// Grouping spans (reps, streams, readers) count as uncovered.
func checkSpans(t *testing.T, name string, res *result) {
	t.Helper()
	tr := res.tracer
	self := tr.selfTimes()
	for i, s := range tr.spans {
		if self[i] < -int64(time.Microsecond) {
			t.Errorf("%s: span %s has negative self time %d ns", name, s.name, self[i])
		}
	}
	if c := tr.coverage(); c < 0.95 {
		t.Errorf("%s: layer spans cover %.1f%% of the reps, want >= 95%%", name, c*100)
	}
	layers := tr.layerTimes()
	var perRep []int64
	nth := make(map[int]int)
	for i, s := range tr.spans {
		if s.parent >= 0 || s.name != "rep" {
			continue
		}
		k := nth[s.tid]
		nth[s.tid]++
		if k == len(perRep) {
			perRep = append(perRep, 0)
		}
		perRep[k] = max(perRep[k], layers[i])
	}
	var covered int64
	for _, l := range perRep {
		covered += l
	}
	if wall := int64(res.tracedWall); math.Abs(float64(covered-wall)) > 0.05*float64(wall) {
		t.Errorf("%s: layer self times sum to %d ns of a %d ns traced wall", name, covered, wall)
	}
	if got := res.metrics["trace.coverage_pct"]; math.Abs(got-tr.coverage()*100) > 1e-9 {
		t.Errorf("%s: trace.coverage_pct = %v, spans give %v", name, got, tr.coverage()*100)
	}
}

// TestCoverageCountsLayersOnly builds a rep holding a stream grouping
// span: only the layer spans inside it count as covered.
func TestCoverageCountsLayersOnly(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "rep", parent: -1, dur: 100, group: true},
		{name: "stream delta", parent: 0, dur: 90, group: true},
		{name: "open", parent: 1, dur: 20},
		{name: "write", parent: 1, dur: 40, count: 8},
		{name: "System.Run", parent: 0, dur: 5},
		{name: "noc.sa", parent: 4, dur: 3, count: 2},
	}
	if got, want := tr.coverage(), 0.65; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if layers := tr.layerTimes(); len(layers) != 1 || layers[0] != 65 {
		t.Errorf("layer time per root = %v, want map[0:65]", layers)
	}
}

// TestUpdateExpected regenerates the pinned digests:
//
//	go test -run TestUpdateExpected -update-expected
func TestUpdateExpected(t *testing.T) {
	if !*updateExpected {
		t.Skip("run with -update-expected to rewrite testdata/expected.json")
	}
	pins := make(map[string]map[string]map[string]string)
	for _, name := range []string{"sim-loaded", "sim-light", "campaign"} {
		pins[name] = make(map[string]map[string]string)
		for _, seed := range []int64{1, 2} {
			w, err := newWorkload(name, params{seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var check *digestCheck
			switch w := w.(type) {
			case *simWorkload:
				check = w.check
			case *campaignWorkload:
				check = w.check
			}
			check.pinned = nil
			if _, err := w.rep(nil); err != nil {
				t.Fatal(err)
			}
			pins[name][strconv.FormatInt(seed, 10)] = check.seen
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHistPercentile compares the histogram's percentiles with exact
// order statistics over a wide spread of durations.
func TestHistPercentile(t *testing.T) {
	var h hist
	xs := make([]float64, 0, 5000)
	v := uint64(1)
	for i := 0; i < 5000; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		d := time.Duration(v>>40) + 50 // 50 ns to ~16 ms
		h.add(d)
		xs = append(xs, float64(d))
	}
	sort.Float64s(xs)
	for _, p := range []float64{0, 1, 50, 90, 99, 99.9, 100} {
		want := xs[int(p/100*float64(len(xs)-1))]
		if got := h.percentile(p); math.Abs(got-want) > 0.01*want+1 {
			t.Errorf("p%v = %v, want %v within 1%%", p, got, want)
		}
	}
}
