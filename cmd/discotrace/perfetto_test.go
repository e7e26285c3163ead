package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/disco-sim/disco/internal/compress"
	"github.com/disco-sim/disco/internal/disco"
	"github.com/disco-sim/disco/internal/fault"
	"github.com/disco-sim/disco/internal/noc"
	"github.com/disco-sim/disco/internal/tracefmt"
)

var update = flag.Bool("update", false, "rewrite the committed Perfetto golden JSON")

// buildFixtureTrace runs a fixed-seed DISCO load with fault injection
// armed (so the export covers engine spans, packet spans AND
// fault/breaker instants) and returns the binary trace bytes. The run
// is fully deterministic, so the exported JSON can be a committed
// golden artifact.
func buildFixtureTrace(t *testing.T) []byte {
	t.Helper()
	alg, err := compress.New("delta")
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.DefaultConfig()
	dc := disco.DefaultConfig(alg)
	cfg.Disco = &dc
	cfg.Fault = &fault.Spec{Seed: 9, EngineRate: 0.05, EngineStuck: 8,
		BreakerK: 3, BreakerCooldown: 64,
		PayloadRate: 0.01, CreditRate: 0.01, CreditRecovery: 32}
	n, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bt := noc.NewBinaryTracer(&buf, cfg.Nodes())
	n.SetTracer(bt)
	tc := noc.DefaultTraffic()
	tc.Seed, tc.InjectionRate = 42, 0.05
	g := noc.NewTrafficGen(n, tc)
	for cycle := 0; cycle < 200; cycle++ {
		g.Step()
		n.Step()
	}
	if !n.RunUntilQuiescent(100000) {
		t.Fatal("fixture network did not drain")
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPerfettoGoldenExport pins the exporter's output byte-for-byte
// against the committed golden (regenerate with -update after an
// intentional format change), and sanity-checks the document structure.
func TestPerfettoGoldenExport(t *testing.T) {
	bin := buildFixtureTrace(t)
	r, err := tracefmt.NewReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := exportPerfetto(r, &out); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, out.Len())
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test -run Perfetto -update): %v", err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		t.Errorf("export differs from committed golden %s (%d vs %d bytes); regenerate with -update if the change is intentional",
			golden, out.Len(), len(want))
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no trace events")
	}
	counts := map[string]int{}
	var engineSpans, packetSpans, instants, threadNames int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		counts[ph]++
		name, _ := ev["name"].(string)
		switch {
		case ph == "X" && name == "engine":
			engineSpans++
		case ph == "b" && ev["cat"] == "packet":
			packetSpans++
		case ph == "i":
			instants++
		case ph == "M" && name == "thread_name":
			threadNames++
		}
	}
	if engineSpans == 0 {
		t.Error("no engine X spans in export")
	}
	if packetSpans == 0 {
		t.Error("no packet async spans in export")
	}
	if instants == 0 {
		t.Error("no fault instants in export (fault injection was armed)")
	}
	if threadNames == 0 {
		t.Error("no router thread_name metadata in export")
	}
	if counts["b"] != counts["e"] {
		t.Errorf("unbalanced async spans: %d begins vs %d ends", counts["b"], counts["e"])
	}
}

// TestPerfettoExportDeterministic guards the golden's premise: two
// exports of the same trace are byte-identical.
func TestPerfettoExportDeterministic(t *testing.T) {
	bin := buildFixtureTrace(t)
	render := func() []byte {
		r, err := tracefmt.NewReader(bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := exportPerfetto(r, &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("same trace exported different bytes")
	}
}
