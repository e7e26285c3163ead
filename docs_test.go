package disco_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose test, make-target and path references
// must resolve.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// historicalMark is the one form in which a document may name a test that
// no longer exists: the name, in backticks, followed by this marker.
const historicalMark = " (removed; see CHANGES.md)"

var (
	// docNameRe matches a Test/Benchmark/Fuzz/Example name, with optional
	// {A,B} alternations (BenchmarkRetrain{SC2,FVC}{Long,Stream}) and an
	// optional trailing * for a prefix family.
	docNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_][A-Za-z0-9_]*(?:\{[A-Za-z0-9_,]+\}[A-Za-z0-9_]*)*\*?`)
	// testFuncRe matches a top-level test-file func declaration.
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	// makeTargetRe matches a Makefile rule.
	makeTargetRe = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	// docMakeRe matches "make <target>" inside code.
	docMakeRe = regexp.MustCompile(`\bmake ([a-z][a-z0-9_-]*)`)
	// docPathRe matches a repository path in code: internal/…, cmd/… or
	// e2ebench/…, optionally ./-prefixed, with {a,b} alternations and *
	// globs. A <placeholder> component ends the path.
	docPathRe = regexp.MustCompile("(?:^|[\\s`(=\"'])(?:\\./)?((?:internal|cmd|e2ebench)/(?:[A-Za-z0-9_.*/-]|\\{[A-Za-z0-9_.,-]+\\})*)")
	// codeRe matches fenced code blocks and inline code spans.
	codeRe = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")
)

// TestDocReferencesResolve fails on any test, benchmark, fuzz target or
// example that README.md, DESIGN.md or EXPERIMENTS.md names but no
// _test.go file in the repository declares, on any `make <target>` in
// their code that the Makefile lacks, and on any repository path in
// their code (`internal/…`, `cmd/…`, `e2ebench/…`) that does not exist.
// A name ending in * is a prefix family and needs one match; a path
// with a * glob needs one match. A deleted test may be named only in the
// historical form "`Name` (removed; see CHANGES.md)".
func TestDocReferencesResolve(t *testing.T) {
	funcs := testFuncNames(t)
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRe.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, loc := range docNameRe.FindAllStringIndex(text, -1) {
			ref := text[loc[0]:loc[1]]
			rest := strings.TrimPrefix(text[loc[1]:], "`")
			if strings.HasPrefix(rest, historicalMark) {
				continue
			}
			for _, name := range expandAlternations(ref) {
				if !resolves(name, funcs) {
					t.Errorf("%s:%d: %s names no test func (mark a deleted one `%s`%s)",
						doc, lineOf(text, loc[0]), name, name, historicalMark)
				}
			}
		}
		for _, code := range codeRe.FindAllStringIndex(text, -1) {
			for _, m := range docMakeRe.FindAllStringSubmatchIndex(text[code[0]:code[1]], -1) {
				target := text[code[0]+m[2] : code[0]+m[3]]
				if !targets[target] {
					t.Errorf("%s:%d: make %s is not a Makefile target",
						doc, lineOf(text, code[0]+m[0]), target)
				}
			}
			for _, m := range docPathRe.FindAllStringSubmatchIndex(text[code[0]:code[1]], -1) {
				ref := text[code[0]+m[2] : code[0]+m[3]]
				for _, path := range expandAlternations(ref) {
					if !pathExists(path) {
						t.Errorf("%s:%d: %s is not a path in the repository",
							doc, lineOf(text, code[0]+m[2]), path)
					}
				}
			}
		}
	}
}

// testFuncNames collects every Test/Benchmark/Fuzz/Example func declared
// in a _test.go file of the repository (testdata and hidden directories
// excluded).
func testFuncNames(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !funcs["TestDocReferencesResolve"] {
		t.Fatal("the scan did not find this test's own declaration")
	}
	return funcs
}

// expandAlternations expands each {A,B} group of ref into every
// combination.
func expandAlternations(ref string) []string {
	open := strings.IndexByte(ref, '{')
	if open < 0 {
		return []string{ref}
	}
	end := open + strings.IndexByte(ref[open:], '}')
	var out []string
	for _, alt := range strings.Split(ref[open+1:end], ",") {
		out = append(out, expandAlternations(ref[:open]+alt+ref[end+1:])...)
	}
	return out
}

// resolves reports whether name (a prefix family when it ends in *) is
// declared.
func resolves(name string, funcs map[string]bool) bool {
	prefix, family := strings.CutSuffix(name, "*")
	if !family {
		return funcs[name]
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// pathExists reports whether path, read as a go package pattern (a
// trailing /... names the directory) or a file glob, names something in
// the repository. Trailing dots and slashes (end of a sentence, a
// directory) are dropped.
func pathExists(path string) bool {
	path = strings.TrimSuffix(path, "/...")
	path = strings.TrimRight(path, "./")
	matches, err := filepath.Glob(path)
	return err == nil && len(matches) > 0
}

func lineOf(text string, off int) int { return strings.Count(text[:off], "\n") + 1 }

func TestExpandAlternations(t *testing.T) {
	got := expandAlternations("BenchmarkRetrain{SC2,FVC}{Long,Stream}")
	want := []string{"BenchmarkRetrainSC2Long", "BenchmarkRetrainSC2Stream",
		"BenchmarkRetrainFVCLong", "BenchmarkRetrainFVCStream"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("expandAlternations = %v, want %v", got, want)
	}
}
