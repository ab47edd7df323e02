package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes. Export is the compiler export-data file `go list -export`
// produces in the build cache; it is how dependencies are resolved
// without source type-checking (and without any network or module
// downloads — the same mechanism `go vet` uses).
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` over the patterns and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{
		"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
		"-deps",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter builds a types.Importer that resolves import paths
// from the export-data files go list reported. One importer is shared
// across every target package so common dependencies are decoded once.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Load lists, parses, and type-checks the packages matching the
// patterns, resolving their dependencies from compiler export data.
// dir is the directory to run `go list` from (the module root or any
// directory inside it). Test files are not loaded: the suite encodes
// production-path invariants, and several analyzers (nopanic in
// particular) explicitly exempt tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []*listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		pkg, err := typeCheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses every non-test .go file in one directory as a single
// package and type-checks it under the given import path, resolving
// imports from export data produced for the surrounding module. It is
// the analysistest entry point: fixtures live in testdata directories
// (invisible to ./... builds) but may import real repo and standard
// library packages, and the import path chosen decides which zone-scoped
// analyzers consider the fixture in scope.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}

	// Parse first to learn the fixture's imports, then ask go list for
	// exactly that dependency closure's export data.
	fset := token.NewFileSet()
	var asts []*ast.File
	imports := make(map[string]bool)
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
		for _, spec := range f.Imports {
			imports[strings.Trim(spec.Path.Value, `"`)] = true
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		patterns := make([]string, 0, len(imports))
		for p := range imports {
			patterns = append(patterns, p)
		}
		listed, err := goList(dir, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Error != nil {
				return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return typeCheckFiles(fset, exportImporter(fset, exports), importPath, asts)
}

func typeCheck(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var asts []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	pkg, err := typeCheckFiles(fset, imp, importPath, asts)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}

func typeCheckFiles(fset *token.FileSet, imp types.Importer, importPath string, asts []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      asts,
		Types:      tpkg,
		Info:       info,
	}, nil
}
