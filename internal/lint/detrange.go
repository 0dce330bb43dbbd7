package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrange flags `range` over a map in code whose output order is
// observable.
//
// Two scopes. In the analyzer hot paths (paint, eqset, warnock, raycast,
// core) every map range is flagged: the analyzers produce ordered
// histories and dependence lists, core.Engine and core.Seq consume them, and the
// cross-checker compares runs byte for byte, so a map range anywhere on
// these paths can reorder emitted dependences run to run. In the encoding
// layers (the wire package and the root package's checkpoint files) only
// map ranges inside encoder-feeding functions are flagged: a function
// that calls a JSON/binary encoder (or is named Encode/Checkpoint/
// MarshalJSON), and any same-package function it directly calls, must not
// assemble its output by iterating a map — the bytes it produces are
// compared across runs.
//
// Iterate a sorted key slice instead. A loop that is provably
// order-insensitive (e.g. cloning a map into another map) may carry a
// "//lint:allow detrange <why>" directive.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc:  "forbid range over maps in analyzer hot paths and encoder-feeding functions (map order is nondeterministic)",
	Match: func(path string) bool {
		if path == "visibility" {
			return true
		}
		switch pkgTail(path) {
		case "paint", "eqset", "warnock", "raycast", "core", "wire":
			return true
		}
		return false
	},
	Run: runDetrange,
}

func runDetrange(pass *Pass) error {
	path := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	hot := path != pass.ModulePath && pkgTail(path) != "wire"
	var scoped map[*ast.FuncDecl]bool
	if !hot {
		scoped = encoderFeeders(pass)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hot && !scoped[fd] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if hot {
						pass.Reportf(rs.For,
							"range over map %s in a hot path: iteration order is nondeterministic and can reorder emitted dependences; iterate sorted keys instead", t)
					} else {
						pass.Reportf(rs.For,
							"range over map %s in encoder-feeding function %s: iteration order is nondeterministic and the encoded bytes are compared across runs; iterate sorted keys instead", t, fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// encoderFeeders returns the functions whose bodies feed wire/checkpoint
// encoders: seeds are functions that call an encoding entry point (or are
// named like one), and the set closes over their direct same-package
// callees — one level of transitivity, matching how encode helpers are
// factored in this module.
func encoderFeeders(pass *Pass) map[*ast.FuncDecl]bool {
	byObj := make(map[types.Object]*ast.FuncDecl)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				byObj[obj] = fd
			}
		}
	}
	seeds := make(map[*ast.FuncDecl]bool)
	for _, fd := range decls {
		switch fd.Name.Name {
		case "Encode", "Checkpoint", "MarshalJSON", "MarshalBinary":
			seeds[fd] = true
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			if fn, ok := pass.Info.Uses[id].(*types.Func); ok && isEncoderFunc(fn) {
				seeds[fd] = true
				return false
			}
			return true
		})
	}
	out := make(map[*ast.FuncDecl]bool, len(seeds))
	for fd := range seeds {
		out[fd] = true
	}
	for fd := range seeds {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			if obj := pass.Info.Uses[id]; obj != nil {
				if callee, ok := byObj[obj]; ok {
					out[callee] = true
				}
			}
			return true
		})
	}
	return out
}
