package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ---- det-maprange: Go randomizes map iteration order, so a map range
// whose body appends, sends, or writes publishes that randomness. The
// rule accepts the loop when the enclosing function sorts what the loop
// publishes: a sort call whose first argument names a slice the loop
// appends to — the repo idioms "collect keys, sort, iterate" and "collect
// results, sort, emit". A sort of anything else in the function is no
// evidence, and a loop that sends or writes has nothing a later sort can
// put in order.

type detMapRange struct{}

func (detMapRange) ID() string { return "det-maprange" }
func (detMapRange) Doc() string {
	return "forbid emitting (append/send/write) from a map range unless the function sorts the slice it appends to"
}

func (detMapRange) Check(u *Unit, cfg *Config) []Finding {
	var out []Finding
	for _, f := range u.reportFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := typeUnderlying[*types.Map](u, rs.X); !isMap {
					return true
				}
				if !emitsInBody(u, rs.Body) || sortsOutput(u, fd.Body, rs) {
					return true
				}
				out = append(out, Finding{
					Pos:  u.position(rs.Pos()),
					Rule: "det-maprange",
					Msg:  "map iteration order is random and this loop emits per-key results",
					Hint: "collect the keys, sort them, then iterate (or sort the collected output)",
				})
				return true
			})
		}
	}
	return out
}

// typeUnderlying returns e's underlying type asserted to T.
func typeUnderlying[T types.Type](u *Unit, e ast.Expr) (T, bool) {
	t := u.Info.TypeOf(e)
	if t == nil {
		var zero T
		return zero, false
	}
	v, ok := t.Underlying().(T)
	return v, ok
}

// sortsOutput reports whether body, anywhere (nested literals included),
// makes a sort call whose first argument mentions a slice the map range rs
// appends to.
func sortsOutput(u *Unit, body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	want := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAppend(u, call) && len(call.Args) > 0 {
			if obj := named(u, call.Args[0]); obj != nil {
				want[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 && isSortCall(u, call) {
			ast.Inspect(call.Args[0], func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && want[u.Info.ObjectOf(id)] {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// named returns the variable or field an expression stands for: x, p.x,
// x[i], x[i:j] and *x all name x. Anything else names nothing.
func named(u *Unit, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return u.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			return u.Info.ObjectOf(x.Sel)
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSortCall reports a call that sorts: any call into package sort, a
// slices function with "Sort" in its name, or any other function whose
// name mentions sorting — the repo's own helpers (record.SortPairs) count
// the same as the stdlib.
func isSortCall(u *Unit, call *ast.CallExpr) bool {
	if fn := pkgFunc(u, call.Fun); fn != nil {
		switch fn.Pkg().Path() {
		case "sort":
			return true
		case "slices":
			return strings.Contains(fn.Name(), "Sort")
		}
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// isAppend reports a call of the append builtin.
func isAppend(u *Unit, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := u.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// emitMethods are receiver methods that publish data in map-range bodies.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Print": true, "Printf": true, "Println": true, "Emit": true,
}

// emitFuncs are package-level printers that publish data.
var emitFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func emitsInBody(u *Unit, body *ast.BlockStmt) bool {
	emits := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			emits = true
			return false
		case *ast.CallExpr:
			if isAppend(u, x) {
				emits = true
				return false
			}
			if fn := pkgFunc(u, x.Fun); fn != nil && emitFuncs[fn.Name()] {
				emits = true
				return false
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if _, isMethod := u.Info.Selections[sel]; isMethod && emitMethods[sel.Sel.Name] {
					emits = true
					return false
				}
			}
		}
		return true
	})
	return emits
}
