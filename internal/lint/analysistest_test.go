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
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// RunTest runs one analyzer over the testdata tree at dir and checks its
// diagnostics against "// want" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest in miniature.
//
// Each immediate subdirectory of dir is one package, importable by the
// other subdirectories under its bare directory name (so a fixture can
// provide a stand-in "privilege" package). A line expecting diagnostics
// carries a trailing comment of the form
//
//	// want "regexp" "another regexp"
//
// with one quoted regexp per expected diagnostic on that line. The test
// fails on any unmatched expectation and any unexpected diagnostic.
// Fixtures go through the driver's own Run, so they cover //lint:allow
// suppression too.
func RunTest(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkgs, err := loadTestdata(dir)
	if err != nil {
		t.Fatalf("loading testdata %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkgs, diags)
}

// wantRe matches one quoted or backquoted regexp inside a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

func checkWants(t *testing.T, pkgs []*Package, diags []Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					i := strings.Index(text, "want ")
					if !strings.HasPrefix(text, "//") || i < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text[i:], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// loadTestdata parses and type-checks every package under dir. Local
// imports resolve to sibling subdirectories by bare name; everything else
// resolves through compiler export data fetched lazily with `go list`.
func loadTestdata(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type rawPkg struct {
		name    string
		files   []*ast.File
		imports map[string]bool
	}
	var raws []*rawPkg
	local := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		names, err := filepath.Glob(filepath.Join(sub, "*.go"))
		if err != nil || len(names) == 0 {
			continue
		}
		sort.Strings(names)
		rp := &rawPkg{name: e.Name(), imports: make(map[string]bool)}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			rp.files = append(rp.files, f)
			for _, imp := range f.Imports {
				rp.imports[strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
		raws = append(raws, rp)
		local[e.Name()] = true
	}

	im := &lazyImporter{mem: make(map[string]*types.Package), exports: make(map[string]string)}
	im.base = importer.ForCompiler(fset, "gc", im.lookup)

	var pkgs []*Package
	checked := make(map[string]bool)
	for len(pkgs) < len(raws) {
		progress := false
		for _, rp := range raws {
			if checked[rp.name] {
				continue
			}
			ready := true
			for imp := range rp.imports {
				if local[imp] && !checked[imp] {
					ready = false
				}
			}
			if !ready {
				continue
			}
			info := newInfo()
			conf := types.Config{Importer: im}
			tpkg, err := conf.Check(rp.name, fset, rp.files, info)
			if err != nil {
				return nil, fmt.Errorf("type-checking testdata package %s: %w", rp.name, err)
			}
			im.mem[rp.name] = tpkg
			checked[rp.name] = true
			progress = true
			pkgs = append(pkgs, &Package{Path: rp.name, Fset: fset, Files: rp.files, Types: tpkg, Info: info})
		}
		if !progress {
			return nil, fmt.Errorf("import cycle among testdata packages in %s", dir)
		}
	}
	return pkgs, nil
}

// lazyImporter resolves local testdata packages from memory and standard
// library packages from export data, listing each one on first use.
type lazyImporter struct {
	base    types.Importer
	mem     map[string]*types.Package
	exports map[string]string
}

func (im *lazyImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.mem[path]; ok {
		return p, nil
	}
	return im.base.Import(path)
}

func (im *lazyImporter) lookup(path string) (io.ReadCloser, error) {
	f, ok := im.exports[path]
	if !ok {
		out, err := runGoList(".", []string{"list", "-export", "-json", path})
		if err != nil {
			return nil, err
		}
		var p listPkg
		if err := json.Unmarshal(bytes.TrimSpace(out), &p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output for %s: %w", path, err)
		}
		if p.Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		im.exports[path] = p.Export
		f = p.Export
	}
	return os.Open(f)
}
