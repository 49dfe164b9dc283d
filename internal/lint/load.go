package lint

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
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path.
	Path string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info are the type-checker's results.
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses, and type-checks a tree of packages with full
// type information using only the standard library: module (or corpus)
// packages are checked from source in dependency order, and standard-library
// imports are resolved by go/importer's source importer against GOROOT.
type Loader struct {
	fset *token.FileSet
	std  types.ImporterFrom

	// dirs maps the import path of every discovered tree package to its
	// directory; pkgs caches checked packages; checking guards cycles.
	dirs     map[string]string
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader returns a loader ready to Load a tree.
func NewLoader() *Loader {
	// The source importer type-checks stdlib packages straight from
	// GOROOT/src. With cgo enabled it would try to preprocess cgo files
	// (package net); type information for the pure-Go variants is
	// equivalent for linting, so force them.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:     map[string]string{},
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
}

// LoadModule loads every package of the Go module rooted at root (the
// directory containing go.mod), returning them sorted by import path.
// Directories named testdata (and hidden/underscore directories) are
// skipped, as the go tool does.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	if err := l.discover(root, module); err != nil {
		return nil, err
	}
	return l.checkAll()
}

// LoadTree loads a GOPATH-style source tree: every package directory under
// srcRoot becomes a package whose import path is its path relative to
// srcRoot. The lint test corpora use this to mirror real module import
// paths (testdata/<rule>/src/helcfl/internal/fl → "helcfl/internal/fl").
func (l *Loader) LoadTree(srcRoot string) ([]*Package, error) {
	if err := l.discover(srcRoot, ""); err != nil {
		return nil, err
	}
	return l.checkAll()
}

// discover walks root registering every buildable package directory. When
// module is non-empty the import path is module[/rel]; otherwise it is rel.
func (l *Loader) discover(root, module string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return fmt.Errorf("lint: scan %s: %w", path, err)
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		imp := rel
		if module != "" {
			if rel == "." {
				imp = module
			} else {
				imp = module + "/" + rel
			}
		}
		l.dirs[imp] = path
		return nil
	})
}

// checkAll type-checks every discovered package (dependency order is
// resolved lazily through ImportFrom) and returns them sorted by path.
func (l *Loader) checkAll() ([]*Package, error) {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// load parses and type-checks one tree package, memoized.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir := l.dirs[path]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: tree packages resolve to our
// own checked packages; everything else is treated as standard library and
// type-checked from GOROOT source. srcDir is pinned inside GOROOT so the
// underlying go/build lookup never consults module resolution.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirs[path]; ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, filepath.Join(runtime.GOROOT(), "src"), 0)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}
