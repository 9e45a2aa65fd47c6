package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path ("netpart/internal/core"), or a synthetic
	// path for directories outside the module (testdata packages).
	Path string
	// Dir is the absolute directory the files came from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds non-fatal type-check errors. Analysis proceeds on a
	// best-effort basis: analyzers treat missing type info conservatively.
	TypeErrors []error

	loader *Loader
}

// Loader parses and type-checks packages of one module from source. Std
// library imports are resolved through go/importer's source importer, so
// the loader needs no module cache and no network — only GOROOT sources.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// ModulePath is the module's import path prefix ("netpart").
	ModulePath string

	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*Package // keyed by directory
	byPath map[string]*Package // keyed by import path

	// inter caches the interprocedural solve over the packages loaded so
	// far; interN is the byPath count at build time, so loading more
	// packages invalidates the cache.
	inter  *Interproc
	interN int
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root, modulePath string) *Loader {
	// The source importer consults go/build's default context; with cgo
	// enabled it would select cgo files in std packages (net, runtime/cgo)
	// that go/types cannot check from source. The pure-Go fallbacks are
	// what this repository compiles against anyway.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		Root:       root,
		ModulePath: modulePath,
		fset:       fset,
		pkgs:       map[string]*Package{},
		byPath:     map[string]*Package{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// packages returns every package loaded so far, in import-path order.
func (l *Loader) packages() []*Package {
	paths := make([]string, 0, len(l.byPath))
	for p := range l.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		if pkg := l.byPath[p]; pkg != nil {
			out = append(out, pkg)
		}
	}
	return out
}

// Interproc returns the interprocedural state (call graph + summaries)
// over every package loaded so far, building it on first use and
// rebuilding when the loaded set has grown since.
func (l *Loader) Interproc() *Interproc {
	if l.inter == nil || l.interN != len(l.byPath) {
		l.inter = BuildInterproc(l.fset, l.packages())
		l.interN = len(l.byPath)
	}
	return l.inter
}

// Load resolves the given patterns ("./...", "./internal/core", absolute
// directories) into loaded packages, in deterministic directory order.
// Directories without non-test Go files are skipped silently, mirroring
// the go tool's pattern matching.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// expand turns patterns into an ordered list of candidate directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		recursive := false
		if p == "..." || strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if p == "" {
				p = "."
			}
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(l.Root, p)
		}
		if !recursive {
			add(p)
			continue
		}
		err := filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// testdata holds analyzer fixtures with intentional violations;
			// the go tool skips these directory names too.
			if path != p && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPath maps a directory to its import path under the module, or a
// synthetic rooted path for out-of-module directories.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// loadDir loads the package in one directory (nil if it has no non-test
// Go files). Results are cached so shared dependencies load once.
func (l *Loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// A package may hold one declaration per architecture; only the
		// files the host's build would compile type-check together.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[dir] = nil
		return nil, nil
	}
	path := l.importPath(dir)
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, loader: l}
	// Register before type-checking so import cycles fail in go/types
	// rather than recursing forever here.
	l.pkgs[dir] = pkg
	l.byPath[path] = pkg
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l, from: dir},
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// moduleImporter resolves imports for one package being checked: module
// paths recurse into the loader, everything else goes to the source
// importer for GOROOT.
type moduleImporter struct {
	l    *Loader
	from string
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.from, 0)
}

func (im *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := im.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("import %q: no Go package", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}

// LoadModule loads the packages the patterns name from the module that
// encloses the working directory, and solves the call graph over them.
func LoadModule(patterns ...string) ([]*Package, *Interproc, error) {
	root, modPath, err := findModuleRoot(".")
	if err != nil {
		return nil, nil, err
	}
	l := NewLoader(root, modPath)
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	return pkgs, l.Interproc(), nil
}

// findModuleRoot walks up from dir to the directory containing go.mod and
// returns it with the module path parsed from the file.
func findModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if v, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(v), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
