package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/cmp"
	"github.com/disco-sim/disco/internal/experiments"
	"github.com/disco-sim/disco/internal/metrics"
	"github.com/disco-sim/disco/internal/obs"
	"github.com/disco-sim/disco/internal/simrun"
	"github.com/disco-sim/disco/internal/store"
	"github.com/disco-sim/disco/internal/tracefmt"
)

// TestExitCodeClassification pins the documented exit-code contract
// (README "Resumable campaigns"): each failure class maps to its code,
// with interruption taking precedence over the cancellation noise it
// causes, and a stalled cell diagnosed as a stall rather than a
// generic cell failure.
func TestExitCodeClassification(t *testing.T) {
	plain := errors.New("plain failure")
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"internal", plain, ExitError},
		{"wrapped internal", fmt.Errorf("campaign: %w", plain), ExitError},
		{"config", &configError{errors.New("unknown mode")}, ExitConfig},
		{"wrapped config", fmt.Errorf("setup: %w", &configError{plain}), ExitConfig},
		{"stall", &cmp.StallError{}, ExitStall},
		{"cell failure", &simrun.CellError{Attempts: 3, Err: plain}, ExitCellFailed},
		{"stalled cell is a stall", &simrun.CellError{Attempts: 1, Err: &cmp.StallError{}}, ExitStall},
		{"interrupted", fmt.Errorf("canceled: %w", simrun.ErrInterrupted), ExitInterrupted},
		{"interrupted beats cell failure",
			&simrun.CellError{Attempts: 1, Err: fmt.Errorf("drain: %w", simrun.ErrInterrupted)},
			ExitInterrupted},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// TestCampaignServerExportsStoreCounters: the campaign /status and
// /metrics endpoints must carry the persistence counters (disk hits,
// retries, quarantined) alongside the scheduler ones.
func TestCampaignServerExportsStoreCounters(t *testing.T) {
	r := simrun.New(1, true)
	st, err := store.Open(t.TempDir(), store.Options{Version: "campaign-test"})
	if err != nil {
		t.Fatal(err)
	}
	r.SetStore(st)
	key := simrun.Key{Mode: "disco", Algorithm: "delta", Benchmark: "bodytrack",
		K: 4, Ops: 100, Warmup: 50, Seed: 1, Config: "c"}
	if err := st.Put(key.Canonical(), cmp.Results{Benchmark: "bodytrack"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(key, func() (cmp.Results, error) {
		t.Error("pre-seeded cell executed instead of replaying from disk")
		return cmp.Results{}, nil
	}).Wait(); err != nil {
		t.Fatal(err)
	}

	srv, err := startCampaignServer("127.0.0.1:0", r, obs.NewReporter(io.Discard, "discosim"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := http.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(res.Body).Decode(&status); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	for field, want := range map[string]float64{
		"cells_submitted": 1, "cells_disk_hits": 1, "retries": 0, "quarantined": 0,
	} {
		got, ok := status[field].(float64)
		if !ok || got != want {
			t.Errorf("/status %s = %v, want %v", field, status[field], want)
		}
	}

	res, err = http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	text, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"disco_simrun_disk_hits 1", "disco_simrun_retries 0", "disco_simrun_quarantined 0",
	} {
		if !bytes.Contains(text, []byte(family)) {
			t.Errorf("/metrics missing %q:\n%s", family, text)
		}
	}
	if err := metrics.CheckPrometheusText(bytes.NewReader(text)); err != nil {
		t.Errorf("/metrics fails exposition lint: %v", err)
	}
}

// TestConfigMistakesClassifyAsConfig: every operator-input error the
// CLI produces must exit 2, not 1.
func TestConfigMistakesClassifyAsConfig(t *testing.T) {
	o := observeOpts{rep: obs.NewReporter(io.Discard, "discosim")}
	for name, err := range map[string]error{
		"unknown mode":       singleRun("warp", "swaptions", "delta", 4, 100, 50, 1, o),
		"unknown benchmark":  singleRun("disco", "nope", "delta", 4, 100, 50, 1, o),
		"unknown algorithm":  singleRun("disco", "swaptions", "bogus", 4, 100, 50, 1, o),
		"bad fault spec":     singleRun("disco", "swaptions", "delta", 4, 100, 50, 1, observeOpts{faultSpec: "engine=2.0", rep: o.rep}),
		"unknown experiment": runExperiments("fig99", experiments.Opts{}, io.Discard),
	} {
		if err == nil {
			t.Errorf("%s: expected an error", name)
			continue
		}
		if got := exitCode(err); got != ExitConfig {
			t.Errorf("%s: exitCode = %d, want %d (err: %v)", name, got, ExitConfig, err)
		}
	}
}

func TestSingleRunAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	for _, mode := range []string{"baseline", "ideal", "cc", "cnc", "disco"} {
		if err := singleRun(mode, "swaptions", "delta", 4, 400, 200, 1, observeOpts{}); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

func TestSingleRunRejectsBadInputs(t *testing.T) {
	if err := singleRun("warp", "swaptions", "delta", 4, 100, 50, 1, observeOpts{}); err == nil {
		t.Error("unknown mode should fail")
	}
	if err := singleRun("disco", "nope", "delta", 4, 100, 50, 1, observeOpts{}); err == nil {
		t.Error("unknown benchmark should fail")
	}
	if err := singleRun("disco", "swaptions", "bogus", 4, 100, 50, 1, observeOpts{}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

// TestRunExperimentsDispatch drives every path through the experiment
// table: each entry alone prints its header, "all" prints exactly the
// entries marked All in table order, and an unknown name is a
// configuration error that lists the valid ones.
func TestRunExperimentsDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	o := experiments.Opts{Ops: 300, Warmup: 150, Seed: 1, Benchmarks: []string{"swaptions"},
		Runner: simrun.New(0, true)}
	var want bytes.Buffer
	for _, e := range experiments.Experiments {
		var out bytes.Buffer
		if err := runExperiments(e.Name, o, &out); err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if !bytes.HasPrefix(out.Bytes(), []byte("== ")) {
			t.Errorf("%s: output does not start with a header:\n%s", e.Name, out.String())
		}
		if e.All {
			want.Write(out.Bytes())
		}
	}
	var all bytes.Buffer
	if err := runExperiments("all", o, &all); err != nil {
		t.Fatalf("all: %v", err)
	}
	if !bytes.Equal(all.Bytes(), want.Bytes()) {
		t.Errorf("-exp all is not the All entries in table order:\n%s\nwant:\n%s", all.String(), want.String())
	}
	err := runExperiments("fig99", o, io.Discard)
	if got := exitCode(err); got != ExitConfig {
		t.Fatalf("unknown experiment: exitCode = %d, want %d (err: %v)", got, ExitConfig, err)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error %q does not name %q", err, name)
		}
	}
}

func TestSingleRunObservabilityArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	dir := t.TempDir()
	obs := observeOpts{
		metricsOut: filepath.Join(dir, "metrics.json"),
		traceBin:   filepath.Join(dir, "trace.bin"),
	}
	if err := singleRun("disco", "swaptions", "delta", 4, 400, 200, 1, obs); err != nil {
		t.Fatal(err)
	}
	// The metrics export is valid JSON with the expected scopes.
	raw, err := os.ReadFile(obs.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var exp struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &exp); err != nil {
		t.Fatalf("metrics export is not JSON: %v", err)
	}
	if exp.Counters["noc.injected"] == 0 || exp.Counters["cmp.l2_misses"] == 0 {
		t.Errorf("expected nonzero noc/cmp counters, got %d/%d",
			exp.Counters["noc.injected"], exp.Counters["cmp.l2_misses"])
	}
	// The binary trace parses end to end.
	f, err := os.Open(obs.traceBin)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := tracefmt.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		if _, err := rd.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		n++
	}
	if n == 0 {
		t.Error("binary trace contains no records")
	}
}

// TestSingleRunHTTPObservability smoke-tests the -http endpoint against
// a live run: /status decodes as JSON naming the run, /metrics passes
// the Prometheus text lint and carries the profiler families, and the
// pprof handlers answer.
func TestSingleRunHTTPObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	checked := false
	o := observeOpts{
		metricsOut: filepath.Join(t.TempDir(), "metrics.json"),
		profile:    true,
		httpAddr:   "127.0.0.1:0",
		rep:        obs.NewReporter(io.Discard, "discosim"),
		httpReady: func(addr string) {
			checked = true
			res, err := http.Get("http://" + addr + "/status")
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			var st struct {
				Mode      string `json:"mode"`
				Benchmark string `json:"benchmark"`
			}
			if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
				t.Fatalf("/status is not JSON: %v", err)
			}
			if st.Mode != "disco" || st.Benchmark != "swaptions" {
				t.Errorf("/status = %+v, want disco/swaptions", st)
			}

			res, err = http.Get("http://" + addr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			text, err := io.ReadAll(res.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(text, []byte("disco_obs_profile_steps")) {
				t.Error("/metrics is missing the live profiler families")
			}
			if !bytes.Contains(text, []byte("disco_noc_injected")) {
				t.Error("/metrics is missing the published simulation families")
			}
			if err := metrics.CheckPrometheusText(bytes.NewReader(text)); err != nil {
				t.Errorf("/metrics fails exposition lint: %v", err)
			}

			res, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
			if err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Errorf("/debug/pprof/cmdline: status %d", res.StatusCode)
			}
		},
	}
	if err := singleRun("disco", "swaptions", "delta", 4, 400, 200, 1, o); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Error("httpReady hook never fired")
	}
}

// TestObservabilityIsPurelyObservational is the top-level golden gate
// for the whole observability layer: the same run executed bare and
// with profiler + HTTP endpoint + boundary probe all armed must produce
// byte-identical metrics and binary-trace artifacts. Anything the
// profiler or the /status publisher perturbs in simulation state would
// show up here.
func TestObservabilityIsPurelyObservational(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	runOnce := func(observed bool) (metricsRaw, traceRaw []byte) {
		dir := t.TempDir()
		o := observeOpts{
			metricsOut: filepath.Join(dir, "metrics.json"),
			traceBin:   filepath.Join(dir, "trace.bin"),
			rep:        obs.NewReporter(io.Discard, "discosim"),
		}
		if observed {
			o.profile = true
			o.httpAddr = "127.0.0.1:0"
			o.httpEvery = 64 // probe aggressively to maximize interference surface
		}
		if err := singleRun("disco", "swaptions", "delta", 4, 400, 200, 1, o); err != nil {
			t.Fatal(err)
		}
		m, err := os.ReadFile(o.metricsOut)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(o.traceBin)
		if err != nil {
			t.Fatal(err)
		}
		return m, tr
	}
	bareMetrics, bareTrace := runOnce(false)
	obsMetrics, obsTrace := runOnce(true)
	if !bytes.Equal(bareMetrics, obsMetrics) {
		t.Error("metrics artifact differs with observability armed")
	}
	if !bytes.Equal(bareTrace, obsTrace) {
		t.Error("binary trace differs with observability armed")
	}
}

// TestSingleRunProfileReport checks -profile routes a phase-profile
// block through the structured reporter.
func TestSingleRunProfileReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	var buf bytes.Buffer
	o := observeOpts{profile: true, rep: obs.NewReporter(&buf, "discosim")}
	if err := singleRun("disco", "swaptions", "delta", 4, 400, 200, 1, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "discosim: phase profile") {
		t.Errorf("reporter output missing profile block:\n%s", out)
	}
	if !strings.Contains(out, "cycles/s") {
		t.Errorf("profile block missing throughput headline:\n%s", out)
	}
}

func TestSingleRunFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	obs := observeOpts{faultSpec: "engine=0.05,stuck=16,payload=0.01,credit=0.005", faultSeed: 7}
	if err := singleRun("disco", "swaptions", "delta", 4, 400, 200, 1, obs); err != nil {
		t.Errorf("chaos run: %v", err)
	}
	bad := observeOpts{faultSpec: "engine=2.0", faultSeed: 1}
	if err := singleRun("disco", "swaptions", "delta", 4, 100, 50, 1, bad); err == nil {
		t.Error("out-of-range fault rate should fail")
	}
}
