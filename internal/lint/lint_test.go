package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func pos(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}

// TestAnalyzers runs every analyzer against its seeded-violation fixture
// under testdata/<name>; the fixtures' "// want" comments pin both the
// violations each check must catch and the sanctioned patterns it must
// stay silent on.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{Interferecheck, "testdata/interferecheck"},
		{Guardedby, "testdata/guardedby"},
		{Detrange, "testdata/detrange"},
		{Errchecklite, "testdata/errchecklite"},
	}
	if len(tests) != len(All()) {
		t.Fatalf("fixture table covers %d analyzers, All() has %d", len(tests), len(All()))
	}
	for _, tt := range tests {
		t.Run(tt.analyzer.Name, func(t *testing.T) {
			RunTest(t, tt.analyzer, tt.dir)
		})
	}
}

// TestMatchPolicies pins the one package-scoped policy left: every
// analyzer runs on every package, and only detrange's burden of proof
// depends on the package. A hot-path set that silently widens or narrows
// would either spam unrelated packages or stop guarding the analyzers.
func TestMatchPolicies(t *testing.T) {
	for path, want := range map[string]bool{
		"visibility/internal/paint": true, "visibility/internal/eqset": true,
		"visibility/internal/warnock": true, "visibility/internal/raycast": true,
		"visibility/internal/core": true, "visibility/internal/wire": false,
		"visibility": false,
	} {
		if got := hotPkgs[pkgTail(path)]; got != want {
			t.Errorf("hot path %q = %v, want %v", path, got, want)
		}
	}
}

// TestLoadModule loads this module's privilege package (and an external
// test variant elsewhere) through the real go-list-backed loader, the same
// path cmd/vislint takes.
func TestLoadModule(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	pkgs, err := Load("../..", "./internal/privilege", "./internal/core")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, want := range []string{
		"visibility/internal/privilege",
		"visibility/internal/core",
		"visibility/internal/core_test", // external test package, checked separately
	} {
		p, ok := byPath[want]
		if !ok {
			t.Fatalf("Load returned no package %q (got %v)", want, paths(pkgs))
		}
		if len(p.Files) == 0 || p.Types == nil {
			t.Errorf("package %q loaded without files or type information", want)
		}
	}
	// The test-augmented variant replaces the plain package: privilege has
	// in-package tests, so its entry must include them.
	priv := byPath["visibility/internal/privilege"]
	found := false
	for _, f := range priv.Files {
		if strings.HasSuffix(priv.Fset.Position(f.Pos()).Filename, "privilege_test.go") {
			found = true
		}
	}
	if !found {
		t.Errorf("privilege package was loaded without its in-package test files")
	}
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}

// TestAllowRationaleRequired pins the rationale contract: a lint:allow
// without a trailing explanation suppresses nothing and is itself
// reported (against the non-suppressible "directive" pseudo-analyzer).
func TestAllowRationaleRequired(t *testing.T) {
	src := `package p

func f() {
	//lint:allow guardedby
	//lint:allow detrange the loop only counts entries
	_ = 0
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}

	diags := directiveDiags(pkg)
	if len(diags) != 1 {
		t.Fatalf("directiveDiags = %v, want exactly one finding", diags)
	}
	d := diags[0]
	if d.Pos.Line != 4 || d.Analyzer != "directive" ||
		!strings.Contains(d.Message, "lint:allow requires a rationale") {
		t.Errorf("unexpected directive finding: %s", d)
	}

	ig := collectIgnores(pkg)
	if ig.suppressed(Diagnostic{Pos: pos("p.go", 5), Analyzer: "guardedby"}) {
		t.Errorf("rationale-less allow must suppress nothing")
	}
	for _, line := range []int{5, 6} {
		if !ig.suppressed(Diagnostic{Pos: pos("p.go", line), Analyzer: "detrange"}) {
			t.Errorf("rationale-bearing allow should cover line %d", line)
		}
	}
}

// TestModuleClean is the module-wide regression gate: the full analyzer
// suite over the whole module must report nothing. A new finding either
// gets fixed or carries a rationale-bearing //lint:allow.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool and loads the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestIgnoreDirective pins the suppression contract: a directive names its
// analyzer and covers its own line plus the next.
func TestIgnoreDirective(t *testing.T) {
	ig := ignores{
		"f.go:10": {"detrange": true},
		"f.go:11": {"detrange": true},
		"g.go:5":  {"all": true},
	}
	tests := []struct {
		d    Diagnostic
		want bool
	}{
		{Diagnostic{Pos: pos("f.go", 10), Analyzer: "detrange"}, true},
		{Diagnostic{Pos: pos("f.go", 11), Analyzer: "detrange"}, true},
		{Diagnostic{Pos: pos("f.go", 12), Analyzer: "detrange"}, false},
		{Diagnostic{Pos: pos("f.go", 10), Analyzer: "guardedby"}, false},
		{Diagnostic{Pos: pos("g.go", 5), Analyzer: "errchecklite"}, true},
	}
	for _, tt := range tests {
		if got := ig.suppressed(tt.d); got != tt.want {
			t.Errorf("suppressed(%s:%d %s) = %v, want %v",
				tt.d.Pos.Filename, tt.d.Pos.Line, tt.d.Analyzer, got, tt.want)
		}
	}
}
