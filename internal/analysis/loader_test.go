package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeModule materializes a throwaway module from path->contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadSyntaxError proves a broken file fails the load with a
// diagnostic that names the file and line — the error the CLI turns
// into exit 2.
func TestLoadSyntaxError(t *testing.T) {
	t.Parallel()
	dir := writeModule(t, map[string]string{
		"go.mod":    "module broken\n\ngo 1.22\n",
		"broken.go": "package main\n\nfunc main() {\n",
	})
	_, err := Load(dir, LoadConfig{})
	if err == nil {
		t.Fatal("Load succeeded on a module with a syntax error")
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Errorf("error does not name the broken file: %v", err)
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Errorf("error does not point at the offending line: %v", err)
	}
}

// TestLoadTypeError proves type errors surface with the package named.
func TestLoadTypeError(t *testing.T) {
	t.Parallel()
	dir := writeModule(t, map[string]string{
		"go.mod":  "module broken\n\ngo 1.22\n",
		"main.go": "package main\n\nfunc main() { var x int = \"not an int\"; _ = x }\n",
	})
	_, err := Load(dir, LoadConfig{})
	if err == nil {
		t.Fatal("Load succeeded on a module with a type error")
	}
	if !strings.Contains(err.Error(), "type errors in broken") {
		t.Errorf("error does not name the failing package: %v", err)
	}
}

// TestLoadImportCycle proves a module-internal import cycle is reported
// as such — not looped over, not misattributed.
func TestLoadImportCycle(t *testing.T) {
	t.Parallel()
	dir := writeModule(t, map[string]string{
		"go.mod":  "module cyclic\n\ngo 1.22\n",
		"a/a.go":  "package a\n\nimport \"cyclic/b\"\n\nvar A = b.B\n",
		"b/b.go":  "package b\n\nimport \"cyclic/a\"\n\nvar B = 1\n\nvar AA = a.A\n",
		"main.go": "package main\n\nfunc main() {}\n",
	})
	_, err := Load(dir, LoadConfig{})
	if err == nil {
		t.Fatal("Load succeeded on a module with an import cycle")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error does not say 'import cycle': %v", err)
	}
}

// realTree is this repository, loaded at most once per test binary: a
// full load is the package's slowest step, and the tests that inspect the
// real tree share the result read-only.
var realTree struct {
	once sync.Once
	m    *Module
	err  error
}

func loadRealTree(t *testing.T) *Module {
	t.Helper()
	realTree.once.Do(func() { realTree.m, realTree.err = Load("../..", LoadConfig{}) })
	if realTree.err != nil {
		t.Fatalf("loading the real module: %v", realTree.err)
	}
	return realTree.m
}

// TestLoadLevelOrder proves the parallel type-checking still yields
// imports-before-importers order in Module.Pkgs.
func TestLoadLevelOrder(t *testing.T) {
	t.Parallel()
	m := loadRealTree(t)
	seen := make(map[string]bool, len(m.Pkgs))
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if strings.HasPrefix(ip, m.Path) && !seen[ip] {
					t.Errorf("package %s precedes its import %s", pkg.Path, ip)
				}
			}
		}
		seen[pkg.Path] = true
	}
}

// BenchmarkLoadRepo measures a full parse + type-check of this
// repository — the loader's end-to-end cost, dominated by stdlib source
// type-checking on the first level and module packages after.
func BenchmarkLoadRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Load("../..", LoadConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
