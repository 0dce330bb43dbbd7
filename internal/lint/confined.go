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

// Confined is the goroutine-confinement pass. Struct fields and types
// annotated "// confined to <domain>" may only be reached from code whose
// execution domain is provably that domain. The pass builds a module-wide
// call graph seeded at every entry point — main, init, test functions, and
// every `go` statement — and propagates execution domains along call and
// function-value edges to a fixpoint.
//
// Domains start at roots: a function whose doc comment carries
// "// confined to <domain>" executes in exactly that domain, no matter who
// calls it (this models per-instance ownership: any goroutine may own an
// instance, but a single one at a time drives its API). Two built-in
// domains exist: #outside (main, init, and goroutines spawned without a
// domain root) and #test (Test/Benchmark/Fuzz/Example functions), and
// #test is allowed to touch everything — tests drive single-goroutine
// instances directly.
//
// Three annotation forms:
//
//	// confined to <domain>     on a struct field: the field may only be
//	                            accessed from code in <domain>; if the
//	                            field has func type, function literals
//	                            stored into it become <domain> roots.
//	// confined to <domain>     on a function: a domain root (see above).
//	// confined to <domain>     on a struct type: escape rules only — a
//	                            value of the type must not be sent over a
//	                            channel, stored in a package-level
//	                            variable, or captured by a spawned
//	                            goroutine's closure.
//	//confined:callbacks <domain>  on a function: function literals passed
//	                            directly as arguments to it become
//	                            <domain> roots (for executor APIs that
//	                            run their callbacks on a domain's
//	                            goroutine, e.g. Server.doSync).
//
// Known, deliberate imprecision: a function literal not bound by any rule
// above inherits its enclosing function's domains (the synchronous-
// callback assumption), functions reached only through interface dispatch
// have no domains and go unchecked (annotate the implementing method as a
// root instead), and passing a function value around merges the referrer's
// domains into the referee rather than tracking where it is eventually
// invoked.
var Confined = &Analyzer{
	Name: "confined",
	Doc: "checks that state annotated 'confined to <domain>' is only reached " +
		"from code executing in that goroutine domain",
	RunModule: runConfined,
}

const (
	domainOutside = "#outside"
	domainTest    = "#test"
)

// confinedAnnRe matches a "confined to <domain>" annotation occupying a
// whole line of a comment group (so prose mentioning confinement does not
// trigger it).
var confinedAnnRe = regexp.MustCompile(`(?m)^\s*confined to ([a-z][a-z0-9_-]*)\s*$`)

// callbacksAnnRe matches the raw "//confined:callbacks <domain>" directive.
var callbacksAnnRe = regexp.MustCompile(`^//confined:callbacks\s+([a-z][a-z0-9_-]*)`)

// cnode is one function (declaration or literal) in the domain graph.
type cnode struct {
	key     string // "pkg.Recv.Name" for decls, "" for literals
	pkg     *Package
	fn      ast.Node // *ast.FuncDecl or *ast.FuncLit
	body    *ast.BlockStmt
	root    string // fixed domain; "" means propagated
	spawned bool   // literal launched by a go statement
	domains map[string]bool
	succs   map[*cnode]bool // domain flow: this → succ
}

type confCtx struct {
	mp      *ModulePass
	fields  map[string]string // "pkg.Struct.Field" → domain
	funcFld map[string]bool   // annotated fields with func type
	ctypes  map[string]string // "pkg.Type" → domain
	cbacks  map[string]string // func key → callback-root domain
	decls   map[string]*cnode // func key → node
	nodes   []*cnode          // all nodes in deterministic order
	parents map[ast.Node]ast.Node
}

func runConfined(mp *ModulePass) error {
	c := &confCtx{
		mp:      mp,
		fields:  make(map[string]string),
		funcFld: make(map[string]bool),
		ctypes:  make(map[string]string),
		cbacks:  make(map[string]string),
		decls:   make(map[string]*cnode),
		parents: make(map[ast.Node]ast.Node),
	}
	c.buildParents()
	c.collectAnnotations()
	c.buildDecls()
	for _, n := range c.declsInOrder() {
		c.walkNode(n)
	}
	c.packageLevelLits()
	c.propagate()
	c.check()
	return nil
}

func (c *confCtx) buildParents() {
	for _, pkg := range c.mp.Pkgs {
		for _, f := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if len(stack) > 0 {
					c.parents[n] = stack[len(stack)-1]
				}
				stack = append(stack, n)
				return true
			})
		}
	}
}

// annDomain extracts a confinement domain from any of the comment groups.
func annDomain(groups ...*ast.CommentGroup) string {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		if m := confinedAnnRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func (c *confCtx) collectAnnotations() {
	for _, pkg := range c.mp.Pkgs {
		path := pkg.Types.Path()
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					typeDoc := ts.Doc
					if typeDoc == nil && len(gd.Specs) == 1 {
						typeDoc = gd.Doc
					}
					if d := annDomain(typeDoc, ts.Comment); d != "" {
						c.ctypes[path+"."+ts.Name.Name] = d
					}
					for _, fld := range st.Fields.List {
						d := annDomain(fld.Doc, fld.Comment)
						if d == "" {
							continue
						}
						_, isFunc := fld.Type.(*ast.FuncType)
						for _, name := range fld.Names {
							key := path + "." + ts.Name.Name + "." + name.Name
							c.fields[key] = d
							if isFunc {
								c.funcFld[key] = true
							}
						}
					}
				}
			}
		}
	}
}

// declKey builds the string identity of a declared function: package path,
// receiver type name (or empty), and name. String identity is what unifies
// a package with its test variant.
func declKey(path string, fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		for {
			switch x := t.(type) {
			case *ast.StarExpr:
				t = x.X
				continue
			case *ast.IndexExpr:
				t = x.X
				continue
			case *ast.IndexListExpr:
				t = x.X
				continue
			}
			break
		}
		if id, ok := t.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	return path + "." + recv + "." + fd.Name.Name
}

// funcKeyOf is declKey for a resolved types.Func.
func funcKeyOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return fn.Pkg().Path() + "." + recv + "." + fn.Name()
}

var testFuncRe = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)

func (c *confCtx) buildDecls() {
	for _, pkg := range c.mp.Pkgs {
		path := pkg.Types.Path()
		for _, f := range pkg.Files {
			inTestFile := strings.HasSuffix(c.mp.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &cnode{
					key:     declKey(path, fd),
					pkg:     pkg,
					fn:      fd,
					body:    fd.Body,
					domains: make(map[string]bool),
					succs:   make(map[*cnode]bool),
				}
				if d := annDomain(fd.Doc); d != "" {
					n.root = d
				}
				if fd.Doc != nil {
					for _, cm := range fd.Doc.List {
						if m := callbacksAnnRe.FindStringSubmatch(cm.Text); m != nil {
							c.cbacks[n.key] = m[1]
						}
					}
				}
				if n.root == "" {
					switch {
					case fd.Recv == nil && fd.Name.Name == "main" && f.Name.Name == "main":
						n.root = domainOutside
					case fd.Recv == nil && fd.Name.Name == "init":
						n.root = domainOutside
					case inTestFile && fd.Recv == nil && testFuncRe.MatchString(fd.Name.Name):
						n.root = domainTest
					}
				}
				if n.root != "" {
					n.domains[n.root] = true
				}
				c.decls[n.key] = n
				c.nodes = append(c.nodes, n)
			}
		}
	}
}

func (c *confCtx) declsInOrder() []*cnode {
	out := make([]*cnode, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// funcTarget resolves an expression to a module function's node, if any.
func (c *confCtx) funcTarget(pkg *Package, e ast.Expr) *cnode {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.IndexListExpr:
			e = x.X
			continue
		}
		break
	}
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return c.decls[funcKeyOf(fn)]
}

// inCallPosition reports whether e (an ident or selector referencing a
// function) is the callee of a call expression, climbing through parens,
// selector heads, and generic instantiations.
func (c *confCtx) inCallPosition(e ast.Expr) bool {
	cur := ast.Node(e)
	for {
		p := c.parents[cur]
		switch x := p.(type) {
		case *ast.ParenExpr:
			cur = x
			continue
		case *ast.SelectorExpr:
			if x.Sel == cur {
				cur = x
				continue
			}
			return false
		case *ast.IndexExpr:
			if x.X == cur {
				cur = x
				continue
			}
			return false
		case *ast.IndexListExpr:
			if x.X == cur {
				cur = x
				continue
			}
			return false
		case *ast.CallExpr:
			return x.Fun == cur
		default:
			return false
		}
	}
}

func (c *confCtx) edge(from, to *cnode) {
	if to.root != "" {
		return // roots fix their own domain
	}
	from.succs[to] = true
}

// classifyLit decides the binding of a function literal: spawned by go,
// stored into an annotated func field, passed to a callbacks-annotated
// function, or plain (inherits the enclosing node's domains).
func (c *confCtx) classifyLit(encl *cnode, lit *ast.FuncLit) *cnode {
	n := &cnode{
		pkg:     encl.pkg,
		fn:      lit,
		body:    lit.Body,
		domains: make(map[string]bool),
		succs:   make(map[*cnode]bool),
	}
	pkg := encl.pkg
	switch p := c.parents[lit].(type) {
	case *ast.CallExpr:
		if p.Fun == lit {
			if g, ok := c.parents[p].(*ast.GoStmt); ok && g.Call == p {
				n.root = domainOutside
				n.spawned = true
			}
			break // immediately-invoked literal: inherits
		}
		// Literal passed as an argument.
		if callee := c.funcTarget(pkg, p.Fun); callee != nil {
			if d, ok := c.cbacks[callee.key]; ok {
				n.root = d
			}
		}
	case *ast.KeyValueExpr:
		if p.Value != lit {
			break
		}
		cl, ok := c.parents[p].(*ast.CompositeLit)
		if !ok {
			break
		}
		keyID, ok := p.Key.(*ast.Ident)
		if !ok {
			break
		}
		if k := namedKeyOf(pkg.Info.TypeOf(cl)); k != "" {
			fkey := k + "." + keyID.Name
			if c.funcFld[fkey] {
				n.root = c.fields[fkey]
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != ast.Expr(lit) || i >= len(p.Lhs) {
				continue
			}
			sel, ok := p.Lhs[i].(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if fkey, ok := c.fieldKeyOf(pkg, sel); ok && c.funcFld[fkey] {
				n.root = c.fields[fkey]
			}
		}
	}
	if n.root != "" {
		n.domains[n.root] = true
	} else {
		c.edge(encl, n)
	}
	c.nodes = append(c.nodes, n)
	return n
}

// walkNode traverses the region of n's body belonging to n itself —
// nested function literals become their own nodes and are walked
// recursively — and records domain-flow edges.
func (c *confCtx) walkNode(n *cnode) {
	pkg := n.pkg
	ast.Inspect(n.body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			lit := c.classifyLit(n, x)
			c.walkNode(lit)
			return false
		case *ast.CallExpr:
			callee := c.funcTarget(pkg, x.Fun)
			if callee == nil {
				return true
			}
			if g, ok := c.parents[x].(*ast.GoStmt); ok && g.Call == x {
				// go f(): spawn. An unannotated target may now run
				// outside every domain; an annotated root is how a
				// domain legitimately starts its goroutine.
				if callee.root == "" {
					callee.domains[domainOutside] = true
				}
				return true
			}
			c.edge(n, callee)
		case *ast.Ident:
			if sel, ok := c.parents[x].(*ast.SelectorExpr); ok && sel.Sel == x {
				return true // handled at the selector
			}
			if _, ok := pkg.Info.Uses[x].(*types.Func); !ok {
				return true
			}
			if c.inCallPosition(x) {
				return true
			}
			if t := c.funcTarget(pkg, x); t != nil {
				c.edge(n, t)
			}
		case *ast.SelectorExpr:
			if _, ok := pkg.Info.Uses[x.Sel].(*types.Func); !ok {
				return true
			}
			if c.inCallPosition(x) {
				return true
			}
			if t := c.funcTarget(pkg, x); t != nil {
				c.edge(n, t)
			}
		}
		return true
	})
}

// packageLevelLits gives function literals bound at package level their
// own (domainless) nodes so their bodies still get escape checks.
func (c *confCtx) packageLevelLits() {
	for _, pkg := range c.mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						lit, ok := v.(*ast.FuncLit)
						if !ok {
							continue
						}
						n := &cnode{
							pkg: pkg, fn: lit, body: lit.Body,
							domains: make(map[string]bool),
							succs:   make(map[*cnode]bool),
						}
						c.nodes = append(c.nodes, n)
						c.walkNode(n)
					}
				}
			}
		}
	}
}

func (c *confCtx) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range c.nodes {
			for succ := range n.succs {
				for d := range n.domains {
					if !succ.domains[d] {
						succ.domains[d] = true
						changed = true
					}
				}
			}
		}
	}
}

// fieldKeyOf resolves a selector to a "pkg.Struct.Field" key when the
// selection is a struct field access.
func (c *confCtx) fieldKeyOf(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	k := namedKeyOf(s.Recv())
	if k == "" {
		return "", false
	}
	return k + "." + sel.Sel.Name, true
}

// namedKeyOf renders a (possibly pointer-to) named type as "pkg.Name".
func namedKeyOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// domainsOK reports whether code running in domains S may touch state
// confined to d: every domain must be d itself or #test.
func domainsOK(S map[string]bool, d string) bool {
	for s := range S {
		if s != d && s != domainTest {
			return false
		}
	}
	return true
}

func domainList(S map[string]bool) string {
	out := make([]string, 0, len(S))
	for d := range S {
		out = append(out, d)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func (c *confCtx) describe(n *cnode) string {
	if fd, ok := n.fn.(*ast.FuncDecl); ok {
		return fmt.Sprintf("function %s", fd.Name.Name)
	}
	pos := c.mp.Fset.Position(n.fn.Pos())
	return fmt.Sprintf("function literal at line %d", pos.Line)
}

func (c *confCtx) check() {
	for _, n := range c.nodes {
		c.checkNode(n)
	}
}

func (c *confCtx) checkNode(n *cnode) {
	pkg := n.pkg
	ast.Inspect(n.body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x != n.fn {
				return false // its own node walks it
			}
		case *ast.SelectorExpr:
			key, ok := c.fieldKeyOf(pkg, x)
			if !ok {
				return true
			}
			d, ok := c.fields[key]
			if !ok {
				return true
			}
			if len(n.domains) == 0 || domainsOK(n.domains, d) {
				return true
			}
			c.mp.Reportf(x.Sel.Pos(),
				"%s-confined field %s accessed from %s, which runs in [%s]",
				d, key, c.describe(n), domainList(n.domains))
		case *ast.SendStmt:
			if k := namedKeyOf(pkg.Info.TypeOf(x.Value)); k != "" {
				if d, ok := c.ctypes[k]; ok {
					c.mp.Reportf(x.Arrow,
						"value of %s-confined type %s sent over a channel, leaving its domain",
						d, k)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				base := lhs
				for {
					switch b := base.(type) {
					case *ast.SelectorExpr:
						base = b.X
						continue
					case *ast.IndexExpr:
						base = b.X
						continue
					case *ast.StarExpr:
						base = b.X
						continue
					case *ast.ParenExpr:
						base = b.X
						continue
					}
					break
				}
				id, ok := base.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Uses[id]
				if obj == nil {
					obj = pkg.Info.Defs[id]
				}
				v, ok := obj.(*types.Var)
				if !ok || v.Parent() != pkg.Types.Scope() {
					continue
				}
				if i >= len(x.Rhs) {
					continue
				}
				if k := namedKeyOf(pkg.Info.TypeOf(x.Rhs[i])); k != "" {
					if d, ok := c.ctypes[k]; ok {
						c.mp.Reportf(lhs.Pos(),
							"value of %s-confined type %s stored in package-level variable %s",
							d, k, id.Name)
					}
				}
			}
		case *ast.Ident:
			if !n.spawned {
				return true
			}
			lit := n.fn.(*ast.FuncLit)
			v, ok := pkg.Info.Uses[x].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
				return true // declared inside the goroutine
			}
			if k := namedKeyOf(v.Type()); k != "" {
				if d, ok := c.ctypes[k]; ok {
					c.mp.Reportf(x.Pos(),
						"goroutine closure captures %s, a value of %s-confined type %s",
						x.Name, d, k)
				}
			}
		}
		return true
	})
}
