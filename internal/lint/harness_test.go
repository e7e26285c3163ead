package lint

// analysistest-style fixture harness: each analyzer runs over a small
// package under testdata/src/<name>/ whose sources carry
// `// want "regex"` comments marking the expected findings. The harness
// fails on any unmatched expectation and any unexpected diagnostic, so
// fixtures pin both the flagged and the allowed patterns.

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// wantRe matches want comments. The optional signed offset re-anchors
// the expectation to another line: `// want-2 "x"` expects the finding
// two lines above. lintignore findings sit on the directive's own line,
// where a trailing comment would become part of the parsed reason, so
// their wants must live elsewhere.
var wantRe = regexp.MustCompile(`//\s*want([+-]\d+)?\s+"([^"]*)"`)

type expectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseExpectations scans the fixture sources for want comments.
func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), line, m[2], err)
			}
			offset := 0
			if m[1] != "" {
				offset, err = strconv.Atoi(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q: %v", e.Name(), line, m[1], err)
				}
			}
			wants = append(wants, &expectation{file: e.Name(), line: line + offset, re: re})
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan fixture: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close fixture: %v", err)
		}
	}
	return wants
}

// loadFixture type-checks testdata/src/<fixture>/ under the given
// import path (fixtures impersonate sim-core packages to satisfy an
// analyzer's Match filter).
func loadFixture(t *testing.T, fixture, pkgPath string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load(dir, pkgPath)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}
	return pkg
}

// runFixture checks one analyzer's diagnostics against the fixture's
// want comments.
func runFixture(t *testing.T, a *Analyzer, fixture, pkgPath string) {
	t.Helper()
	runFixtureSuite(t, []*Analyzer{a}, fixture, pkgPath)
}

// runFixtureSuite is runFixture for several analyzers run together (the
// lintignore auditor needs the other analyzers' raw findings).
func runFixtureSuite(t *testing.T, as []*Analyzer, fixture, pkgPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, pkgPath)
	wants := parseExpectations(t, pkg.Dir)
	diags, err := Run(pkg, as)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestNoDeterminismFixture(t *testing.T) {
	runFixture(t, NoDeterminism, "nodeterminism", "fixturemod/internal/noc")
}

func TestCreditAccessFixture(t *testing.T) {
	runFixture(t, CreditAccess, "creditaccess", "fixturemod/internal/noc")
}

func TestFlitConserveFixture(t *testing.T) {
	runFixture(t, FlitConserve, "flitconserve", "fixturemod/fixture")
}

func TestErrcheckSimFixture(t *testing.T) {
	runFixture(t, ErrcheckSim, "errchecksim", "fixturemod/fixture")
}

func TestStatWidthFixture(t *testing.T) {
	runFixture(t, StatWidth, "statwidth", "fixturemod/internal/stats")
}

func TestPhaseSafetyFixture(t *testing.T) {
	runFixture(t, PhaseSafety, "phasesafety", "fixturemod/internal/noc")
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc", "fixturemod/internal/noc")
}

func TestHotAllocKernelFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc_compress", "fixturemod/internal/compress")
}

func TestHotAllocCmpFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc_cmp", "fixturemod/internal/cmp")
}

func TestHotAllocStreamFixture(t *testing.T) {
	runFixture(t, HotAlloc, "hotalloc_stream", "fixturemod/internal/stream")
}

// TestLintIgnoreFixture runs the auditor together with nodeterminism so
// used/stale verdicts are grounded in a real analyzer's findings.
func TestLintIgnoreFixture(t *testing.T) {
	runFixtureSuite(t, []*Analyzer{NoDeterminism, LintIgnore}, "lintignore", "fixturemod/internal/noc")
}

// TestIgnoreDirective pins the suppression syntax: both same-line and
// preceding-line //lint:ignore comments silence a finding.
func TestIgnoreDirective(t *testing.T) {
	runFixture(t, NoDeterminism, "ignore", "fixturemod/internal/noc")
}

// TestNoDeterminismSanctionsObs pins the observability carve-out: the
// very sources that produce wall-clock and map-order findings inside
// internal/noc are exempt when they live in internal/obs, the one
// sanctioned wall-clock island (its measurements never flow back into
// simulation state; phasesafety polices the reverse direction).
func TestNoDeterminismSanctionsObs(t *testing.T) {
	pkg := loadFixture(t, "nodeterminism", "fixturemod/internal/obs")
	diags, err := Run(pkg, []*Analyzer{NoDeterminism})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("nodeterminism fired inside internal/obs: %s", d)
	}
}

// TestMatchScoping runs a scoped analyzer over a package outside its
// domain: no diagnostics may fire even though the source would be
// flagged inside internal/noc.
func TestMatchScoping(t *testing.T) {
	pkg := loadFixture(t, "creditaccess", "fixturemod/unrelated")
	diags, err := Run(pkg, []*Analyzer{CreditAccess})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("creditaccess fired outside internal/noc: %s", d)
	}
}

// TestAllInventory pins the analyzer suite: a rename or omission here
// breaks CI wiring and the README docs.
func TestAllInventory(t *testing.T) {
	want := []string{
		"nodeterminism", "creditaccess", "flitconserve", "errchecksim",
		"statwidth", "phasesafety", "hotalloc", "lintignore",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc string", a.Name)
		}
	}
}
