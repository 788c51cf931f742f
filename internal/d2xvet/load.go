package d2xvet

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

// Package is one type-checked analysis unit: a package's non-test and
// in-package test files together (external _test packages form their own
// unit).
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader type-checks packages of the enclosing module using only the
// standard library: repository packages are parsed and checked from
// source, standard-library imports resolve through go/importer's source
// importer (the module has no third-party dependencies, so nothing else
// is ever imported). One Loader memoizes its import graph, so loading
// the whole tree type-checks each dependency once.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	fset     *token.FileSet
	ctx      build.Context
	std      types.Importer
	imported map[string]*types.Package // memoized import-mode repo packages
	loading  map[string]bool           // import cycle guard

	// base and under are set on the loader of one external test package:
	// there under resolves to the unit checked with its in-package test
	// files, and a package importing under is checked again against it,
	// while every other import comes from base.
	base  *Loader
	under string
}

// NewLoader returns a loader for the module rooted at root (resolved
// upward to the nearest go.mod when root is inside the module).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dir := root
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			root = dir
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("d2xvet: no go.mod at or above %s", root)
		}
		dir = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:     root,
		Module:   mod,
		fset:     fset,
		ctx:      build.Default,
		imported: map[string]*types.Package{},
		loading:  map[string]bool{},
	}
	l.std = importer.ForCompiler(fset, "source", nil)
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("d2xvet: no module line in %s", path)
}

// Fset returns the loader's file set (shared across every package it
// loads, so positions compare across units).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import resolves one import path: module-local packages load from
// source under Root, "unsafe" maps to types.Unsafe, and everything else
// (the standard library) delegates to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importLocal(path)
	}
	return l.std.Import(path)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// importLocal type-checks a module-local package in import mode (no test
// files), memoized.
func (l *Loader) importLocal(path string) (*types.Package, error) {
	if pkg, ok := l.imported[path]; ok {
		return pkg, nil
	}
	if l.base != nil {
		if pkg, err := l.base.importLocal(path); err != nil || !imports(pkg, l.under, map[*types.Package]bool{}) {
			return pkg, err
		}
	}
	if l.loading[path] {
		return nil, fmt.Errorf("d2xvet: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, _, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("d2xvet: no Go files in %s", dir)
	}
	pkg, _, err := l.check(path, files, nil)
	if err != nil {
		return nil, err
	}
	l.imported[path] = pkg
	return pkg, nil
}

// imports reports whether pkg imports path, directly or not.
func imports(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, dep := range pkg.Imports() {
		if dep.Path() == path {
			return true
		}
		if !seen[dep] {
			seen[dep] = true
			if imports(dep, path, seen) {
				return true
			}
		}
	}
	return false
}

// testLoader returns the loader an external test package of path is
// checked with: path resolves to pkg, the package checked with its
// in-package test files, as go vet and go test build it, so that the
// export_test.go idiom type-checks.
func (l *Loader) testLoader(path string, pkg *types.Package) *Loader {
	v := *l
	v.imported = map[string]*types.Package{path: pkg}
	v.loading = map[string]bool{}
	v.base, v.under = l, path
	return &v
}

// matchFile applies the build context's file filtering (build tags,
// GOOS/GOARCH suffixes) to one file name.
func (l *Loader) matchFile(dir, name string) bool {
	ok, err := l.ctx.MatchFile(dir, name)
	return err == nil && ok
}

// parseDir parses the buildable Go files of one directory, split into
// the primary package's files and (when withTests) the external _test
// package's files. In-package test files join the primary group.
func (l *Loader) parseDir(dir string, withTests bool) (primary, external []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !withTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		if !l.matchFile(dir, n) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	byPkg := map[string][]*ast.File{}
	var order []string
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		name := f.Name.Name
		if _, ok := byPkg[name]; !ok {
			order = append(order, name)
		}
		byPkg[name] = append(byPkg[name], f)
	}
	if len(order) == 0 {
		return nil, nil, nil
	}
	// The primary package is the non-_test name; a directory holding
	// only an external test package (none in this repo) would make that
	// name primary.
	primaryName := order[0]
	for _, name := range order {
		if !strings.HasSuffix(name, "_test") {
			primaryName = name
			break
		}
	}
	for name, files := range byPkg {
		switch {
		case name == primaryName:
			primary = append(primary, files...)
		case name == primaryName+"_test":
			external = append(external, files...)
		}
	}
	sortFiles(l.fset, primary)
	sortFiles(l.fset, external)
	return primary, external, nil
}

func sortFiles(fset *token.FileSet, files []*ast.File) {
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Package).Filename < fset.Position(files[j].Package).Filename
	})
}

// check type-checks one file group under the given import path, resolving
// its imports through l.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, *types.Info, error) {
	if info == nil {
		info = newInfo()
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctx.GOARCH),
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("d2xvet: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// LoadDir loads the analysis units of one directory: the package with
// its in-package test files, plus the external _test package when one
// exists, which imports the first unit.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("d2xvet: %s is outside the module", dir)
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	primary, external, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	var out []*Package
	tl := l
	if len(primary) > 0 {
		pkg, info, err := l.check(path, primary, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{ImportPath: path, Dir: dir, Fset: l.fset, Files: primary, Types: pkg, Info: info})
		tl = l.testLoader(path, pkg)
	}
	if len(external) > 0 {
		pkg, info, err := tl.check(path+"_test", external, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{ImportPath: path + "_test", Dir: dir, Fset: l.fset, Files: external, Types: pkg, Info: info})
	}
	return out, nil
}

// GoDirs returns every directory under root holding buildable Go files,
// skipping testdata, hidden and underscore-prefixed directories.
func GoDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasPrefix(d.Name(), ".") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
