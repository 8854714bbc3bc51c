// Package analysis is tsiglint's zero-dependency static-analysis engine:
// a source-order module loader and type-checker built on go/parser and
// go/types (no golang.org/x/tools), plus the domain analyzers that
// machine-check this repository's crypto and service invariants — no
// secret share ever reaches a formatting sink, crypto packages draw only
// from crypto/rand, wire error codes stay in lockstep between server and
// client, codecs stay length-checked and paired, no lock is held across
// a network round-trip, and metric labels stay bounded.
//
// The loader discovers every package of the enclosing module, parses it,
// topologically sorts the packages by their module-internal imports, and
// type-checks them in that order. Module-internal imports resolve to the
// already-checked packages; standard-library imports are type-checked
// from $GOROOT source via go/importer's "source" compiler. Third-party
// imports are rejected — the module is dependency-free by policy, and
// the analyzers assume it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string      // import path, e.g. "repro/internal/core"
	Dir   string      // absolute source directory
	Files []*ast.File // parsed sources, comments included
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded, fully type-checked module.
type Module struct {
	Path   string // module path from go.mod
	Dir    string // absolute module root
	Fset   *token.FileSet
	Pkgs   []*Package // dependency order: imports precede importers
	byPath map[string]*Package

	cg   *CallGraph // lazily built by callGraph()
	sums *summaries // lazily built by summarize()
}

// Lookup returns the module package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// LoadConfig parametrizes Load.
type LoadConfig struct {
	// IncludeTests merges each package's in-package _test.go files into
	// the unit under analysis. External test files (package foo_test) are
	// always skipped: they see only the package's exported surface, which
	// the in-package view already covers.
	IncludeTests bool
}

// rawPkg is a parsed-but-not-yet-type-checked package.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // module-internal import paths only
}

// Load discovers, parses, and type-checks the module that contains dir.
func Load(dir string, cfg LoadConfig) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset, std := stdImporter()
	raw, err := parseModule(fset, root, modPath, cfg)
	if err != nil {
		return nil, err
	}
	order, err := toposort(raw)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:   modPath,
		Dir:    root,
		Fset:   fset,
		byPath: make(map[string]*Package, len(order)),
	}
	imp := &moduleImporter{m: m, std: std}
	// Type-check level by level: every package's module-internal imports
	// live in strictly earlier levels, so the members of one level are
	// independent and check concurrently. byPath is only written at the
	// level barrier, so the importer reads it without locking.
	for _, lvl := range levelize(order) {
		pkgs := make([]*Package, len(lvl))
		errs := make([]error, len(lvl))
		var wg sync.WaitGroup
		for i, rp := range lvl {
			wg.Add(1)
			go func(i int, rp *rawPkg) {
				defer wg.Done()
				pkgs[i], errs[i] = typecheck(fset, rp, imp)
			}(i, rp)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for _, pkg := range pkgs {
			m.Pkgs = append(m.Pkgs, pkg)
			m.byPath[pkg.Path] = pkg
		}
	}
	return m, nil
}

// levelize groups the topologically ordered packages into dependency
// levels: a package's level is one past its deepest module-internal
// import. Iterating the order (imports first) makes this a single pass.
func levelize(order []*rawPkg) [][]*rawPkg {
	level := make(map[string]int, len(order))
	var out [][]*rawPkg
	for _, rp := range order {
		l := 0
		for _, dep := range rp.imports {
			if dl, ok := level[dep]; ok && dl+1 > l {
				l = dl + 1
			}
		}
		level[rp.path] = l
		for len(out) <= l {
			out = append(out, nil)
		}
		out[l] = append(out[l], rp)
	}
	return out
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := modulePath(data)
			if path == "" {
				return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// parseModule walks the module tree and parses every package. The walk
// only collects directories; the parsing itself fans out across them —
// token.FileSet serializes AddFile internally, so concurrent ParseFile
// calls into one fset are safe.
func parseModule(fset *token.FileSet, root, modPath string, cfg LoadConfig) (map[string]*rawPkg, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if path != root {
			// A nested go.mod starts a different module (e.g. a corpus
			// fixture); it is not part of this one.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rps := make([]*rawPkg, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rps[i], errs[i] = parseDir(fset, root, modPath, dir, cfg)
		}(i, dir)
	}
	wg.Wait()
	raw := make(map[string]*rawPkg, len(rps))
	for i, rp := range rps {
		if errs[i] != nil {
			return nil, errs[i] // first error in walk order, deterministically
		}
		if rp != nil {
			raw[rp.path] = rp
		}
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("analysis: no Go packages under %s", root)
	}
	return raw, nil
}

// parseDir parses one directory into a rawPkg (nil if it has no Go
// files to analyze).
func parseDir(fset *token.FileSet, root, modPath, dir string, cfg LoadConfig) (*rawPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !cfg.IncludeTests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		// External test packages (package foo_test) exercise only the
		// exported surface; skip them so one directory stays one unit.
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	pkgName := files[0].Name.Name
	for _, f := range files[1:] {
		if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s mixes packages %q and %q", dir, pkgName, f.Name.Name)
		}
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	rp := &rawPkg{path: path, dir: dir, files: files}
	seen := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			if (ip == modPath || strings.HasPrefix(ip, modPath+"/")) && !seen[ip] {
				seen[ip] = true
				rp.imports = append(rp.imports, ip)
			}
		}
	}
	sort.Strings(rp.imports)
	return rp, nil
}

// toposort orders packages so that every module-internal import precedes
// its importer, rejecting cycles.
func toposort(raw map[string]*rawPkg) ([]*rawPkg, error) {
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		white = 0 // unvisited
		grey  = 1 // on stack
		black = 2 // done
	)
	color := make(map[string]int, len(raw))
	var order []*rawPkg
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch color[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: import cycle: %s -> %s", strings.Join(stack, " -> "), path)
		}
		color[path] = grey
		rp := raw[path]
		for _, dep := range rp.imports {
			if _, ok := raw[dep]; !ok {
				return fmt.Errorf("analysis: %s imports %s, which is not a package of this module", path, dep)
			}
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		color[path] = black
		order = append(order, rp)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// The standard library is type-checked from source once per process:
// every Load shares one FileSet and one source importer, whose package
// cache then serves each later load (a test binary loads many corpora,
// and several pull in net/http). stdMu serializes the importer, which is
// not safe for concurrent use.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.Importer
	stdMu   sync.Mutex
)

func stdImporter() (*token.FileSet, types.Importer) {
	stdOnce.Do(func() {
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdFset, stdImp
}

// moduleImporter resolves module-internal imports to already-checked
// packages and delegates everything else to the shared $GOROOT source
// importer.
type moduleImporter struct {
	m   *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == mi.m.Path || strings.HasPrefix(path, mi.m.Path+"/") {
		if p := mi.m.Lookup(path); p != nil {
			return p.Types, nil
		}
		return nil, fmt.Errorf("analysis: internal import %q not loaded (cycle?)", path)
	}
	stdMu.Lock()
	pkg, err := mi.std.Import(path)
	stdMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("analysis: importing %q: %w", path, err)
	}
	return pkg, nil
}

// typecheck runs go/types over one parsed package.
func typecheck(fset *token.FileSet, rp *rawPkg, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, err := conf.Check(rp.path, fset, rp.files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", rp.path, strings.Join(msgs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: checking %s: %w", rp.path, err)
	}
	return &Package{Path: rp.path, Dir: rp.dir, Files: rp.files, Types: tpkg, Info: info}, nil
}
