package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The golden corpus: every directory under testdata/ is a miniature
// module named after the analyzer it exercises ("directive" exercises
// the engine's ignore-directive policy). Offending lines carry a
//
//	want `regexp`
//
// comment; the harness demands an exact match in both directions —
// every want produces a diagnostic on its line, every diagnostic is
// wanted.
var wantRE = regexp.MustCompile("want `([^`]+)`")

type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadCorpus loads one testdata module and extracts its wants.
func loadCorpus(t *testing.T, dir string) (*Module, []*wantExpectation) {
	t.Helper()
	m, err := Load(dir, LoadConfig{IncludeTests: true})
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	var wants []*wantExpectation
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					match := wantRE.FindStringSubmatch(c.Text)
					if match == nil {
						continue
					}
					re, err := regexp.Compile(match[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", match[1], err)
					}
					pos := m.Fset.Position(c.Pos())
					wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return m, wants
}

// corpusAnalyzers maps a corpus directory to the analyzers to run over
// it. The directive corpus runs none: the engine's own directive pass
// produces its findings.
func corpusAnalyzers(t *testing.T, name string) []*Analyzer {
	t.Helper()
	if name == "directive" {
		return nil
	}
	as, err := ByName(name)
	if err != nil {
		t.Fatalf("corpus %q does not name an analyzer: %v", name, err)
	}
	return as
}

func corpusNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no corpora under testdata/")
	}
	return names
}

// matchDiags pairs diagnostics with wants; unmatched members of either
// set are errors.
func matchDiags(t *testing.T, diags []Diagnostic, wants []*wantExpectation) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
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
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

// TestGolden proves each analyzer reports exactly its corpus's wants:
// no missed finding, no false positive on the deliberately-clean code
// sharing the same files.
func TestGolden(t *testing.T) {
	t.Parallel()
	for _, name := range corpusNames(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, wants := loadCorpus(t, filepath.Join("testdata", name))
			if len(wants) == 0 {
				t.Fatalf("corpus %s has no want comments; it proves nothing", name)
			}
			matchDiags(t, Run(m, corpusAnalyzers(t, name)), wants)
		})
	}
}

// TestGoldenRequiresAnalyzer proves the corpus findings come from the
// analyzer under test and not from the harness: with the analyzer
// disabled, every want goes unmatched, so TestGolden would fail.
func TestGoldenRequiresAnalyzer(t *testing.T) {
	t.Parallel()
	for _, name := range corpusNames(t) {
		if name == "directive" {
			continue // the directive pass is the engine itself; it cannot be disabled
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, wants := loadCorpus(t, filepath.Join("testdata", name))
			for _, d := range Run(m, nil) {
				t.Errorf("diagnostic with all analyzers disabled: %s", d)
			}
			if len(wants) == 0 {
				t.Fatalf("corpus %s has no want comments", name)
			}
		})
	}
}

// TestRealTreeClean is the CI gate in test form: the full suite over
// the real module must report nothing. It fails with the exact
// diagnostics otherwise, so the offending line is one click away.
func TestRealTreeClean(t *testing.T) {
	t.Parallel()
	for _, d := range Run(loadRealTree(t), Analyzers()) {
		t.Errorf("real tree: %s", d)
	}
}

// TestByName covers the CLI's -only plumbing.
func TestByName(t *testing.T) {
	t.Parallel()
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("secretflow, lockhold")
	if err != nil || len(two) != 2 || two[0].Name != "secretflow" || two[1].Name != "lockhold" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestDiagnosticString pins the human-readable diagnostic shape other
// tooling greps for.
func TestDiagnosticString(t *testing.T) {
	t.Parallel()
	d := Diagnostic{Analyzer: "secretflow", Message: "leak"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: [secretflow] leak"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(d); got != d.String() {
		t.Fatalf("fmt.Sprint = %q", got)
	}
}
