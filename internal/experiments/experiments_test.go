package experiments

import (
	"math"
	"strings"
	"testing"
)

// tinyOpts keeps unit-test runtime low; shape assertions use Quick() in
// the separate -short-skipped tests.
func tinyOpts() Opts {
	return Opts{Ops: 800, Warmup: 500, Seed: 1, Benchmarks: []string{"bodytrack", "canneal"}}
}

func TestOptsProfiles(t *testing.T) {
	o := Opts{}
	ps, err := o.profiles()
	if err != nil || len(ps) != 12 {
		t.Fatalf("all profiles: %d, %v", len(ps), err)
	}
	o.Benchmarks = []string{"vips"}
	ps, err = o.profiles()
	if err != nil || len(ps) != 1 || ps[0].Name != "vips" {
		t.Fatal("single benchmark selection failed")
	}
	o.Benchmarks = []string{"nope"}
	if _, err := o.profiles(); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1(Opts{Benchmarks: []string{"bodytrack", "freqmine", "x264"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("expected 7 schemes, got %d", len(r.Rows))
	}
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Scheme] = row
		if row.Ratio < 1.0 || row.Ratio > 6 {
			t.Errorf("%s ratio %.2f implausible", row.Scheme, row.Ratio)
		}
	}
	// Table 1 shape: SC2 is the strongest, SFPC weaker than FPC.
	if byName["sc2"].Ratio <= byName["sfpc"].Ratio {
		t.Errorf("sc2 (%.2f) should beat sfpc (%.2f)", byName["sc2"].Ratio, byName["sfpc"].Ratio)
	}
	if byName["sfpc"].Ratio > byName["fpc"].Ratio {
		t.Errorf("sfpc (%.2f) should not beat fpc (%.2f)", byName["sfpc"].Ratio, byName["fpc"].Ratio)
	}
	if !strings.Contains(r.Table(), "sc2") {
		t.Error("table rendering missing rows")
	}
	// The per-benchmark matrix has one row per benchmark and one ratio
	// per scheme, and every scheme's overall ratio lies within its
	// per-benchmark range.
	if len(r.ByBench) != 3 || r.ByBench[1].Bench != "freqmine" {
		t.Fatalf("ByBench rows = %+v", r.ByBench)
	}
	for si, row := range r.Rows {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, b := range r.ByBench {
			if len(b.Ratios) != len(r.Rows) {
				t.Fatalf("%s: %d ratios, want %d", b.Bench, len(b.Ratios), len(r.Rows))
			}
			lo, hi = math.Min(lo, b.Ratios[si]), math.Max(hi, b.Ratios[si])
		}
		if row.Ratio < lo || row.Ratio > hi {
			t.Errorf("%s overall %.3f outside per-benchmark range [%.3f, %.3f]", row.Scheme, row.Ratio, lo, hi)
		}
	}
	if bt := r.BenchTable(); !strings.Contains(bt, "freqmine") || !strings.Contains(bt, "overall") {
		t.Errorf("matrix rendering missing rows:\n%s", bt)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	r, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	g := r.GMean
	// Paper shape: every mode is at or above Ideal, and DISCO is the best
	// of the three real designs.
	for _, v := range []float64{g.CC, g.CNC, g.DISCO} {
		if v < 0.98 {
			t.Errorf("normalized latency %.3f below Ideal", v)
		}
	}
	if !(g.DISCO < g.CC) {
		t.Errorf("DISCO (%.3f) should beat CC (%.3f)", g.DISCO, g.CC)
	}
	if r.DiscoGainOverCC() <= 0 {
		t.Errorf("gain over CC = %.1f%%, want > 0", r.DiscoGainOverCC())
	}
	if !strings.Contains(r.Table(), "gmean") {
		t.Error("table missing gmean")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	// Capacity-pressure benchmarks: compression's energy win (fewer DRAM
	// trips, less traffic, shorter runtime) only materializes when the
	// footprint stresses the LLC.
	o := Opts{Ops: 2000, Warmup: 1500, Seed: 1, Benchmarks: []string{"canneal", "streamcluster"}}
	r, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	g := r.GMean
	for _, v := range []float64{g.CC, g.CNC, g.DISCO} {
		if v >= 1.1 || v < 0.4 {
			t.Errorf("normalized energy %.3f implausible", v)
		}
	}
	if g.DISCO >= 1.0 {
		t.Errorf("DISCO energy %.3f should undercut the baseline", g.DISCO)
	}
	if g.DISCO > g.CC || g.DISCO > g.CNC {
		t.Errorf("DISCO (%.3f) should be cheapest (CC %.3f, CNC %.3f)", g.DISCO, g.CC, g.CNC)
	}
}

func TestAblationVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	o := Opts{Ops: 800, Warmup: 500, Seed: 1, Benchmarks: []string{"canneal"}}
	r, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ablationVariants()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	vals := map[string]float64{}
	for _, row := range r.Rows {
		if row.Normalized < 0.9 || row.Normalized > 2 {
			t.Errorf("%s: normalized %.3f implausible", row.Variant, row.Normalized)
		}
		vals[row.Variant] = row.Normalized
	}
	if !strings.Contains(r.Table(), "full") {
		t.Error("table missing variants")
	}
}

func TestAreaTable(t *testing.T) {
	s := AreaTable()
	for _, want := range []string{"disco", "cnc", "17.2%"} {
		if !strings.Contains(s, want) {
			t.Errorf("area table missing %q:\n%s", want, s)
		}
	}
}

func TestQuickAndDefaultOpts(t *testing.T) {
	d, q := Default(), Quick()
	if d.Ops <= q.Ops {
		t.Error("default should be bigger than quick")
	}
	if q.Benchmarks == nil {
		t.Error("quick should subset benchmarks")
	}
}

func TestChartsRender(t *testing.T) {
	lr := LatencyResult{
		Algorithm: "delta",
		Rows:      []LatencyRow{{Bench: "canneal", CC: 1.2, CNC: 1.1, DISCO: 1.05}},
		GMean:     LatencyRow{Bench: "gmean", CC: 1.2, CNC: 1.1, DISCO: 1.05},
	}
	c := lr.Chart()
	if !strings.Contains(c, "canneal") || !strings.Contains(c, "#") {
		t.Errorf("latency chart malformed:\n%s", c)
	}
	sr := ScaleResult{Rows: []ScaleRow{{K: 4, Banks: 16, CC: 1.1, DISCO: 1.05, GainPct: 5}}}
	if c := sr.Chart(); !strings.Contains(c, "4x4") {
		t.Errorf("scale chart malformed:\n%s", c)
	}
}

func TestMotivationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	o := Opts{Ops: 800, Warmup: 400, Seed: 1, Benchmarks: []string{"canneal"}}
	r, err := Motivation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	// Section 3.3C: response payloads must dominate link bandwidth.
	if row.ResponseFlitShare < 0.5 {
		t.Errorf("response flit share %.2f should exceed 0.5", row.ResponseFlitShare)
	}
	if row.HiddenShare < 0 || row.HiddenShare > 1 {
		t.Errorf("hidden share %.2f out of range", row.HiddenShare)
	}
	if !strings.Contains(r.Table(), "canneal") {
		t.Error("table missing rows")
	}
}

func TestReportJSON(t *testing.T) {
	rep := &Report{Opts: Quick()}
	t1 := Table1Result{Rows: []Table1Row{{Scheme: "delta", Ratio: 1.4}}}
	rep.Table1 = &t1
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"delta"`, `"table1"`, `"Ops"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestSensitivitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system sweep")
	}
	o := Opts{Ops: 600, Warmup: 300, Seed: 1, Benchmarks: []string{"canneal"}}
	r, err := Sensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(sensitivityPoints()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.CC < 0.95 || row.CC > 2.5 || row.DISCO < 0.95 || row.DISCO > 2.5 {
			t.Errorf("%s: implausible ratios CC=%.3f DISCO=%.3f", row.Label, row.CC, row.DISCO)
		}
		// DISCO should not lose to CC at any design point.
		if row.DISCO > row.CC*1.03 {
			t.Errorf("%s: DISCO (%.3f) worse than CC (%.3f)", row.Label, row.DISCO, row.CC)
		}
	}
	if !strings.Contains(r.Table(), "Table 2") {
		t.Error("table missing the Table 2 design point")
	}
}

func TestComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	o := Opts{Ops: 800, Warmup: 400, Seed: 1, Benchmarks: []string{"x264"}}
	r, err := Composition(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 modes", len(r.Rows))
	}
	for _, row := range r.Rows {
		sum := row.NoCShare + row.CacheShr + row.CompShare + row.LeakShare
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: shares sum to %.3f", row.Mode, sum)
		}
		if row.Mode == "baseline" && row.CompShare != 0 {
			t.Error("baseline has no compressor energy")
		}
	}
	if !strings.Contains(r.Table(), "x264") {
		t.Error("table malformed")
	}
}

func TestBatchCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system experiment")
	}
	o := Opts{Ops: 400, Warmup: 200, Seed: 1, Benchmarks: []string{"swaptions"}}
	var sb strings.Builder
	if err := BatchCSV(o, "delta", &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+5 { // header + 5 modes
		t.Fatalf("lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "benchmark,mode") {
		t.Errorf("header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], "swaptions,baseline,none") {
		t.Errorf("first row wrong: %s", lines[1])
	}
	if err := BatchCSV(Opts{Benchmarks: []string{"bogus"}}, "delta", &sb); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestRunAllIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	o := Opts{Ops: 300, Warmup: 150, Seed: 1, Benchmarks: []string{"swaptions"}}
	rep, err := RunAll(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Table1 == nil || rep.Fig5 == nil || rep.Fig6 == nil ||
		rep.Fig7 == nil || rep.Fig8 == nil || rep.Ablation == nil {
		t.Fatal("report incomplete")
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 1000 {
		t.Errorf("JSON suspiciously small: %d bytes", len(data))
	}
}
