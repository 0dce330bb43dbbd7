package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring golang.org/x/tools/go/analysis
// in miniature: Run sees one package at a time, and the driver runs every
// analyzer on every package. An analyzer that applies only to some code
// decides that itself, from annotations (guardedby) or the package path
// (detrange's hot paths).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ModulePath string

	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Interferecheck, Guardedby, Detrange, Errchecklite}
}

// Run applies every analyzer to every package, filters directive-suppressed
// findings, and returns the remainder sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg)
		out = append(out, directiveDiags(pkg)...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
				Pkg: pkg.Types, Info: pkg.Info, ModulePath: pkg.ModulePath,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !ig.suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// allowDirective matches "//lint:allow name[,name...] rationale". The
// rationale is mandatory: an allow without one is itself a
// (non-suppressible) finding, so every escape hatch in the tree records
// why it is sound.
var allowDirective = regexp.MustCompile(`^//lint:allow\s+([\w,]+)[ \t]*(.*)$`)

// ignores maps file:line to the analyzer names suppressed there.
type ignores map[string]map[string]bool

// collectIgnores scans a package's comments for lint:allow directives. A
// directive suppresses matching diagnostics on its own line and on the
// following line (so it can sit above a statement or trail it). Directives
// missing a rationale suppress nothing; directiveDiags reports them.
func collectIgnores(pkg *Package) ignores {
	ig := make(ignores)
	add := func(pos token.Position, names string) {
		for _, name := range strings.Split(names, ",") {
			for _, line := range []int{pos.Line, pos.Line + 1} {
				key := fmt.Sprintf("%s:%d", pos.Filename, line)
				if ig[key] == nil {
					ig[key] = make(map[string]bool)
				}
				ig[key][name] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowDirective.FindStringSubmatch(c.Text)
				if m != nil && strings.TrimSpace(m[2]) != "" {
					add(pkg.Fset.Position(c.Pos()), m[1])
				}
			}
		}
	}
	return ig
}

// directiveDiags reports malformed suppression directives — today, a
// lint:allow with no rationale. These are attributed to the pseudo-analyzer
// "directive" and cannot themselves be suppressed.
func directiveDiags(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowDirective.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) != "" {
					continue
				}
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(c.Pos()),
					Analyzer: "directive",
					Message:  "lint:allow requires a rationale: //lint:allow " + m[1] + " <why this is sound>",
				})
			}
		}
	}
	return out
}

func (ig ignores) suppressed(d Diagnostic) bool {
	key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
	return ig[key][d.Analyzer] || ig[key]["all"]
}
