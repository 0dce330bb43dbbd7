package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Guardedby enforces "// guarded by <mu>" field annotations: a struct
// field carrying the annotation may only be read or written while the
// named sibling mutex field of the same object is held.
//
// The scheduler and server layers protect shared state with sync.Mutex,
// but Go offers no way to bind a mutex to the fields it protects; an
// access added outside the critical section compiles cleanly and only
// fails as an intermittent race. The checker tracks Lock/Unlock calls
// flow-sensitively through each function body (branches, loops, defers)
// and reports any annotated-field access at a point where the guard is not
// known to be held. Only Lock holds a guard: an access under a read lock
// alone is reported like any other unguarded access.
//
// Conventions understood:
//   - "defer x.mu.Unlock()" keeps the guard held to the end of the
//     function;
//   - a function whose name ends in "Locked" is assumed to be called
//     with every guard of its receiver already held;
//   - function literals are analyzed with no guards held (they may run
//     on another goroutine);
//   - composite literals do not count as field accesses, so constructors
//     that build the whole value at once need no annotations.
//
// The analysis is intraprocedural and per-package, and it runs on every
// package: an annotation is checked wherever it is written. Annotate
// fields in the package that owns the mutex, and export locked accessors
// rather than guarded fields.
var Guardedby = &Analyzer{
	Name: "guardedby",
	Doc:  "report accesses to '// guarded by <mu>' fields without the guard held",
	Run:  runGuardedby,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardInfo describes one annotated field.
type guardInfo struct {
	structName string
	fieldName  string
	guard      string // sibling field holding the mutex
}

func runGuardedby(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	w := &lockWalker{pass: pass, guards: guards}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(map[string]bool)
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// Callee contract: every guard of the receiver is held.
				if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
					recv := fd.Recv.List[0].Names[0].Name
					for _, gi := range guards {
						held[recv+"."+gi.guard] = true
					}
				}
			}
			w.stmts(fd.Body.List, held)
		}
	}
	return nil
}

// collectGuards finds annotated fields and validates that each names a
// sibling field.
func collectGuards(pass *Pass) map[*types.Var]guardInfo {
	guards := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fl := range st.Fields.List {
				guard := ""
				for _, cg := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
						guard = m[1]
					}
				}
				if guard == "" {
					continue
				}
				if !fieldNames[guard] {
					pass.Reportf(fl.Pos(), "field %s of %s is annotated 'guarded by %s' but %s has no field %s",
						fieldList(fl), ts.Name.Name, guard, ts.Name.Name, guard)
					continue
				}
				for _, name := range fl.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guards[v] = guardInfo{structName: ts.Name.Name, fieldName: name.Name, guard: guard}
					}
				}
			}
			return true
		})
	}
	return guards
}

func fieldList(fl *ast.Field) string {
	var names []string
	for _, n := range fl.Names {
		names = append(names, n.Name)
	}
	return strings.Join(names, ", ")
}

// lockWalker is a conservative flow-sensitive lock tracker. held is the set
// of rendered guard paths ("x.mu") known to be held.
type lockWalker struct {
	pass   *Pass
	guards map[*types.Var]guardInfo
}

func clone(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// pathOf renders an ident/selector chain ("x", "x.inner"); "" when the
// expression is not a simple chain.
func pathOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return pathOf(e.X)
	case *ast.StarExpr:
		return pathOf(e.X)
	case *ast.SelectorExpr:
		base := pathOf(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// lockOp classifies a call as a guard acquisition (Lock) or release
// (Unlock).
func lockOp(call *ast.CallExpr) (path string, release bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock":
	case "Unlock":
		release = true
	default:
		return "", false, false
	}
	p := pathOf(sel.X)
	if p == "" {
		return "", false, false
	}
	return p, release, true
}

// exprs checks every guarded-field access inside e (which must not itself
// be a statement) under the current held set. Function literals are
// walked with an empty held set.
func (w *lockWalker) exprs(e ast.Node, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, make(map[string]bool))
			return false
		case *ast.SelectorExpr:
			w.checkAccess(n, held)
		}
		return true
	})
}

func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, held map[string]bool) {
	s, ok := w.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	gi, ok := w.guards[v]
	if !ok {
		return
	}
	base := pathOf(sel.X)
	if base == "" {
		// Not a simple chain (e.g. f().field): cannot relate the access
		// to a tracked guard; stay silent rather than guess.
		return
	}
	if !held[base+"."+gi.guard] {
		w.pass.Reportf(sel.Sel.Pos(), "access to %s.%s (guarded by %s) without holding %s.%s",
			gi.structName, gi.fieldName, gi.guard, base, gi.guard)
	}
}

// stmts walks a statement list, returning the held set after the list and
// whether control definitely leaves it (return/branch/goto).
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if path, release, ok := lockOp(call); ok {
				held = clone(held)
				if release {
					delete(held, path)
				} else {
					held[path] = true
				}
				return held, false
			}
		}
		w.exprs(s.X, held)
		return held, false

	case *ast.DeferStmt:
		if _, release, ok := lockOp(s.Call); ok && release {
			// Deferred release: the guard stays held to function end.
			return held, false
		}
		w.exprs(s.Call, held)
		return held, false

	case *ast.GoStmt:
		w.exprs(s.Call, held)
		return held, false

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.exprs(e, held)
		}
		for _, e := range s.Lhs {
			w.exprs(e, held)
		}
		return held, false

	case *ast.IncDecStmt:
		w.exprs(s.X, held)
		return held, false

	case *ast.SendStmt:
		w.exprs(s.Chan, held)
		w.exprs(s.Value, held)
		return held, false

	case *ast.DeclStmt:
		w.exprs(s.Decl, held)
		return held, false

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.exprs(e, held)
		}
		return held, true

	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the enclosing
		// construct merges conservatively.
		return held, s.Tok != token.FALLTHROUGH

	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)

	case *ast.BlockStmt:
		return w.stmts(s.List, clone(held))

	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.exprs(s.Cond, held)
		thenHeld, thenTerm := w.stmts(s.Body.List, clone(held))
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = w.stmt(s.Else, clone(held))
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return intersect(thenHeld, elseHeld), false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.exprs(s.Cond, held)
		bodyHeld, _ := w.stmts(s.Body.List, clone(held))
		if s.Post != nil {
			w.stmt(s.Post, bodyHeld)
		}
		// The body may run zero times; only guards held both before and
		// after an iteration survive the loop.
		return intersect(held, bodyHeld), false

	case *ast.RangeStmt:
		w.exprs(s.X, held)
		bodyHeld, _ := w.stmts(s.Body.List, clone(held))
		return intersect(held, bodyHeld), false

	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.exprs(s.Tag, held)
		return w.clauses(s.Body.List, held)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		return w.clauses(s.Body.List, held)

	case *ast.SelectStmt:
		return w.clauses(s.Body.List, held)

	default:
		// Conservative fallback: check accesses, assume no lock effects.
		w.exprs(s, held)
		return held, false
	}
}

// clauses merges case/comm clause bodies: a guard survives only if held
// on every non-terminating path, including the no-case-taken path.
func (w *lockWalker) clauses(list []ast.Stmt, held map[string]bool) (map[string]bool, bool) {
	after := held
	for _, c := range list {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.exprs(e, held)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, clone(held))
			}
			body = c.Body
		default:
			continue
		}
		cHeld, cTerm := w.stmts(body, clone(held))
		if !cTerm {
			after = intersect(after, cHeld)
		}
	}
	return after, false
}
