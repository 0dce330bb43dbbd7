package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detrange is the module's one static determinism rule: the order a map
// is ranged in must not become observable. It looks at one function at a
// time, in every non-test file of every non-main package.
//
// A range over a map is a finding when its body appends to a slice, calls
// a sink (Recorder.Log/LogS, Encode, Fprint*, Write*) or accumulates a
// string or a float — unless appending is all of that it does and the same
// function sorts those slices afterwards ("collect keys, then sort"). In the
// analyzer hot paths the burden of proof is reversed: a map range is a
// finding unless its body is nothing but stores into a map and appends
// sorted later, because the histories and dependence lists built there are
// compared byte for byte by the cross-checker. The finding sits on the
// range statement, where the fix goes. Wall-clock, global-rand,
// pointer-identity and select-order nondeterminism have no static rule: the
// byte-identical oracles (chaos dump replay, wire golden and fixed point,
// checkpoint round trip) fail on them.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc:  "forbid map ranges whose iteration order is observable: order-sensitive bodies with no later sort anywhere, every unproven map range in the analyzer hot paths",
	Run:  runDetrange,
}

// hotPkgs are the analyzer hot paths (by last path element), where a map
// range must be proven order-insensitive, not merely fail to look sensitive.
var hotPkgs = map[string]bool{"paint": true, "eqset": true, "warnock": true, "raycast": true, "core": true}

// pkgTail returns the last element of an import path.
func pkgTail(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func runDetrange(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	hot := hotPkgs[pkgTail(pass.Pkg.Path())]
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapType(pass.Info.TypeOf(rs.X)) {
					return true
				}
				m := types.ExprString(rs.X)
				why, proven := mapRangeOrder(pass, fd.Body, rs)
				switch {
				case why != "":
					pass.Reportf(rs.For, "range over map %s %s, so the result follows map iteration order; iterate sorted keys or sort the result in this function", m, why)
				case hot && !proven:
					pass.Reportf(rs.For, "range over map %s in a hot path: iteration order is nondeterministic and can reorder emitted dependences; iterate sorted keys instead", m)
				}
				return true
			})
		}
	}
	return nil
}

// mapRangeOrder classifies the body of a map range inside fn. why names
// the first order-sensitive thing the body does that no later sort in fn
// repairs ("" when there is none); proven reports that every statement of
// the body is a store into a map or an append (sorted later, or why is set).
func mapRangeOrder(pass *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt) (why string, proven bool) {
	note := func(s string) {
		if why == "" {
			why = s
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhs := types.ExprString(n.Lhs[0])
			if isAppend(n) {
				if !sortedAfter(pass, fn, rs.End(), lhs) {
					note("appends to " + lhs + " with no sort of it later")
				}
			} else if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				if b, ok := pass.Info.TypeOf(n.Lhs[0]).Underlying().(*types.Basic); ok && b.Info()&(types.IsString|types.IsFloat) != 0 {
					note("accumulates the " + b.Name() + " " + lhs)
				}
			}
		case *ast.CallExpr:
			if obj := calleeObject(pass, n); obj != nil {
				name := obj.Name()
				if name == "Log" || name == "LogS" || name == "Encode" || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Write") {
					note("calls the sink " + name)
				}
			}
		}
		return true
	})
	for _, s := range rs.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 {
			return why, false
		}
		ix, ok := as.Lhs[0].(*ast.IndexExpr)
		if !isAppend(as) && !(ok && isMapType(pass.Info.TypeOf(ix.X))) {
			return why, false
		}
	}
	return why, true
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isAppend matches the statement form x = append(x, ...).
func isAppend(as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// sortedAfter reports whether fn calls a sort or slices function after pos
// whose first argument mentions target.
func sortedAfter(pass *Pass, fn *ast.BlockStmt, pos token.Pos, target string) (found bool) {
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		f, ok := calleeObject(pass, call).(*types.Func)
		if !ok || f.Pkg() == nil || (f.Pkg().Path() != "sort" && f.Pkg().Path() != "slices") {
			return true
		}
		ast.Inspect(call.Args[0], func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && types.ExprString(e) == target {
				found = true
			}
			return true
		})
		return true
	})
	return found
}
