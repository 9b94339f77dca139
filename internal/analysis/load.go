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

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// ExportDataImporter builds a types.Importer over the named packages
// (and their dependencies) by asking the go command to compile them for
// export data. The analysistest fixture loader uses it to resolve
// standard-library imports of fixture packages.
func ExportDataImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Export,Error",
	}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(paths, " "), err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath, Export string
			Error              *struct{ Err string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exportImporter(fset, exports), nil
}

// exportImporter returns a types.Importer that resolves packages from gc
// export data files (as produced by `go list -export` or recorded in a
// vet .cfg's PackageFile map).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkPackage parses files (paths relative to dir unless absolute) and
// type-checks them as one package.
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		parsed = append(parsed, f)
	}
	return TypeCheck(fset, imp, pkgPath, parsed)
}

// TypeCheck runs the type checker over already-parsed files.
func TypeCheck(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		if len(typeErrs) > 0 {
			err = fmt.Errorf("type-checking %s: %v (%d errors)", pkgPath, typeErrs[0], len(typeErrs))
		}
		return nil, err
	}
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
