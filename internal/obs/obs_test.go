package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/metrics"
)

func TestProfilerAccumulation(t *testing.T) {
	p := NewPhaseProfiler(1)
	start := Clock()
	p.Observe(PhaseEngine, start-1000) // pretend the stage started 1µs+ ago
	p.Observe(PhaseCommit, start-2000)
	p.AddStep()
	p.AddStep()

	if got := p.Steps(); got != 2 {
		t.Fatalf("Steps = %d, want 2", got)
	}
	if ns := p.TotalNS(PhaseEngine); ns < 1000 {
		t.Errorf("engine = %dns, want >= 1000", ns)
	}
	if ns := p.TotalNS(PhaseCommit); ns < 2000 {
		t.Errorf("commit = %dns, want >= 2000", ns)
	}
	before := p.TotalNS(PhaseEngine)
	p.Observe(PhaseEngine, Clock()-500)
	if p.TotalNS(PhaseEngine) < before+500 {
		t.Error("a second observation did not accumulate onto the first")
	}
}

// TestProfilerClamp checks that NewPhaseProfiler's ignored argument is
// accepted at any value.
func TestProfilerClamp(t *testing.T) {
	for _, arg := range []int{-3, 0, 1, 8} {
		p := NewPhaseProfiler(arg)
		p.Observe(PhaseSA, Clock()-100)
		if p.TotalNS(PhaseSA) < 100 {
			t.Errorf("NewPhaseProfiler(%d): observation lost", arg)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := []string{"engine", "sa", "alloc", "commit", "other"}
	phases := Phases()
	if len(phases) != len(want) {
		t.Fatalf("Phases() has %d entries, want %d", len(phases), len(want))
	}
	for i, ph := range phases {
		if ph.String() != want[i] {
			t.Errorf("phase %d String = %q, want %q", i, ph, want[i])
		}
	}
	if got := Phase(200).String(); got != "phase(?)" {
		t.Errorf("unknown phase String = %q", got)
	}
}

func TestReport(t *testing.T) {
	p := NewPhaseProfiler(1)
	base := Clock()
	p.Observe(PhaseEngine, base-4_000_000)
	p.Observe(PhaseCommit, base-1_000_000)
	for i := 0; i < 100; i++ {
		p.AddStep()
	}
	r := p.Report()
	if r.Steps != 100 {
		t.Fatalf("report = %d steps, want 100", r.Steps)
	}
	if r.PhaseNS[PhaseEngine] < 4_000_000 {
		t.Errorf("engine ns = %d, want >= 4ms", r.PhaseNS[PhaseEngine])
	}
	if r.TotalNS() < r.PhaseNS[PhaseEngine]+r.PhaseNS[PhaseCommit] {
		t.Error("TotalNS smaller than the sum of two observed phases")
	}
	if r.CyclesPerSec() <= 0 {
		t.Error("CyclesPerSec not positive for a live run")
	}

	s := r.String()
	for _, want := range []string{"cycles/sec", "engine", "commit", "other"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
	for _, gone := range []string{"barrier", "lane", "worker"} {
		if strings.Contains(s, gone) {
			t.Errorf("report string still mentions %q:\n%s", gone, s)
		}
	}
}

func TestAttachMetricsRendersPrometheus(t *testing.T) {
	p := NewPhaseProfiler(1)
	p.Observe(PhaseEngine, Clock()-1_000_000)
	p.AddStep()
	reg := metrics.NewRegistry()
	p.AttachMetrics(reg)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf, Namespace); err != nil {
		t.Fatal(err)
	}
	txt := buf.String()
	for _, want := range []string{
		"disco_obs_profile_steps 1",
		"# TYPE disco_obs_profile_cycles_per_sec gauge",
		"disco_obs_profile_phase_engine_seconds",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("exposition missing %q:\n%s", want, txt)
		}
	}
	if err := metrics.CheckPrometheusText(strings.NewReader(txt)); err != nil {
		t.Errorf("profiler exposition fails lint: %v", err)
	}
}

func TestReporter(t *testing.T) {
	var buf strings.Builder
	r := NewReporter(&buf, "discosim")
	r.Infof("simrun: %d cells", 7)
	r.Warnf("manifest not saved: %v", "disk full")
	r.Block("stall snapshot", "line one\nline two\n")
	r.Block("empty", "")
	got := buf.String()
	want := "discosim: simrun: 7 cells\n" +
		"discosim: warning: manifest not saved: disk full\n" +
		"discosim: stall snapshot\n  line one\n  line two\n" +
		"discosim: empty\n"
	if got != want {
		t.Errorf("reporter output:\n%q\nwant:\n%q", got, want)
	}

	var nilRep *Reporter
	nilRep.Infof("dropped")
	nilRep.Warnf("dropped")
	nilRep.Block("dropped", "body")
}

func TestServerPublishedEndpoints(t *testing.T) {
	s := NewServer()

	// Before anything is published, /status degrades to an empty object.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if got := rec.Body.String(); got != "{}\n" {
		t.Errorf("empty /status = %q", got)
	}

	if err := s.PublishStatus(map[string]any{"cycle": 42, "mode": "disco"}); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.Scope("noc").Counter("injected").Add(9)
	if err := s.PublishMetricsExport(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if doc["cycle"].(float64) != 42 {
		t.Errorf("/status cycle = %v", doc["cycle"])
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "disco_noc_injected 9") {
		t.Errorf("/metrics missing published counter:\n%s", body)
	}
	if err := metrics.CheckPrometheusText(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics fails lint: %v", err)
	}
}

func TestServerLiveOverrides(t *testing.T) {
	s := NewServer()
	if err := s.PublishStatus(map[string]int{"published": 1}); err != nil {
		t.Fatal(err)
	}
	s.SetLiveStatus(func() any { return map[string]int{"live": 2} })
	s.SetLiveMetrics(func() []byte {
		return []byte("# TYPE disco_live_cells counter\ndisco_live_cells 3\n")
	})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if !strings.Contains(rec.Body.String(), "\"live\": 2") {
		t.Errorf("live status did not take precedence: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "disco_live_cells 3") {
		t.Errorf("live metrics not appended: %s", rec.Body.String())
	}
	if err := metrics.CheckPrometheusText(strings.NewReader(rec.Body.String())); err != nil {
		t.Errorf("combined /metrics fails lint: %v", err)
	}
}

func TestServerStartServesOverTCP(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", s.Addr(), addr)
	}

	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status over TCP: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", resp.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
