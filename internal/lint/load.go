// Package lint implements vislint, four static analyzers that
// machine-check the runtime's visibility invariants — the properties the
// paper's correctness argument (§3–§7) relies on but the Go type system
// cannot see:
//
//   - interference decisions must go through privilege.Interferes (or the
//     privilege package's accessors), never ad-hoc comparisons of
//     privilege.Kind or privilege.Privilege values (interferecheck);
//   - fields annotated "// guarded by <mu>", in any package, must only be
//     touched with the guard held (guardedby);
//   - a map's iteration order must not become observable: a range over a
//     map that appends, calls a sink or accumulates a string or float
//     needs a later sort, and in the analyzer hot paths every map range
//     must be proven order-insensitive (detrange);
//   - error returns from the module's own API must not be dropped
//     (errchecklite).
//
// The single-goroutine rule (§3.2) has no static pass: the race detector
// checks it, through tests that drive the owner and its readers at once.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature, built
// only on the standard library: packages are loaded with go/parser and
// type-checked with go/types, resolving imports through compiler export
// data located by `go list -export`. This keeps the module dependency-free
// while still giving every analyzer full type information.
package lint

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

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path with any test-variant suffix stripped:
	// "p" for a package (or its test-augmented variant), "p_test" for an
	// external test package.
	Path string
	// ModulePath is the enclosing module's path ("" outside a module,
	// e.g. for analysistest packages).
	ModulePath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	ForTest    string
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load lists, parses, and type-checks every module package matched by
// patterns (relative to dir), including the test variants the go tool
// synthesizes: "p [p.test]" (p recompiled with its in-package test files)
// and "p_test [p.test]" (the external test package). Every module package
// is checked from source in `go list -deps` order so that all module
// cross-references share one set of type objects; only standard-library
// imports resolve through compiler export data (located by
// `go list -export`), which keeps the loader working offline and
// dependency-free. Each entry's ImportMap redirects imports into the right
// variant, exactly as the go tool compiles tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-test", "-export", "-json"}, patterns...)
	out, err := runGoList(dir, args)
	if err != nil {
		return nil, err
	}

	var entries []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		// "p.test" is the synthesized test main (a generated file in the
		// build cache); it is never lint-relevant.
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		q := p
		entries = append(entries, &q)
	}

	exports := make(map[string]string)
	hasVariant := make(map[string]bool)
	for _, p := range entries {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// "p [p.test]" supersedes plain p as a lint target: same files
		// plus the in-package tests.
		if p.ForTest != "" && !strings.Contains(p.ImportPath, "_test [") {
			hasVariant[p.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
	mem := make(map[string]*types.Package)

	var pkgs []*Package
	// `go list -deps` emits dependencies before dependents, so checking in
	// listing order populates mem bottom-up.
	for _, p := range entries {
		if p.Standard || p.Module == nil {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		im := &variantImporter{importMap: p.ImportMap, mem: mem, base: gc}
		pkg, err := checkFiles(fset, im, p.Dir, cleanPath(p.ImportPath), p.Module.Path, p.GoFiles)
		if err != nil {
			return nil, err
		}
		mem[p.ImportPath] = pkg.Types
		if p.DepOnly || (p.ForTest == "" && hasVariant[p.ImportPath]) {
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// cleanPath strips the go tool's test-variant suffix:
// "p [p.test]" -> "p", "p_test [p.test]" -> "p_test".
func cleanPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// checkFiles parses and type-checks one package's files.
func checkFiles(fset *token.FileSet, im types.Importer, dir, path, modPath string, names []string) (*Package, error) {
	if len(names) == 0 {
		return &Package{Path: path, ModulePath: modPath, Fset: fset, Types: types.NewPackage(path, "_empty"), Info: newInfo()}, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	var errs []error
	conf := types.Config{
		Importer: im,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		var b strings.Builder
		for i, e := range errs {
			if i > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "\t%v", e)
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n%s", path, b.String())
	}
	return &Package{Path: path, ModulePath: modPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// variantImporter gives one package the go tool's view of its imports:
// the package's ImportMap redirects paths into test variants, module
// packages resolve to the in-memory copies checked earlier in this load,
// and everything else (the standard library) falls back to compiler
// export data.
type variantImporter struct {
	importMap map[string]string
	mem       map[string]*types.Package
	base      types.Importer
}

func (im *variantImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if p, ok := im.mem[path]; ok {
		return p, nil
	}
	return im.base.Import(path)
}

// runGoList executes `go <args>` in dir and returns stdout, surfacing
// stderr in the error.
func runGoList(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes(), nil
}
