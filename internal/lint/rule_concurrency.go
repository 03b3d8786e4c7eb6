package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ---- conc-loopcapture: a goroutine literal that reads an enclosing
// loop's index or range variable by closure. Go ≥1.22 gives each
// iteration its own variable, so the classic last-value bug cannot bite
// here — but the repo's parallel sections (internal/par, the blocker scan
// workers) pass loop state as arguments so every reader can see
// the data flow without knowing the language version, and so a backport
// or copy into an older module never silently changes meaning. The rule
// makes that explicit style mandatory.

type concLoopCapture struct{}

func (concLoopCapture) ID() string { return "conc-loopcapture" }
func (concLoopCapture) Doc() string {
	return "forbid goroutine literals that close over an enclosing loop's index/range variable"
}

func (concLoopCapture) Check(u *Unit, cfg *Config) []Finding {
	var out []Finding
	for _, f := range u.reportFiles() {
		// Collect every loop's span and declared variables, then flag
		// goroutine literals inside a span whose bodies use those
		// objects. Object identity handles shadowing and parameters: an
		// ident that resolves to a goroutine parameter is a different
		// object from the loop variable.
		type loop struct {
			pos, end token.Pos
			vars     map[types.Object]bool
		}
		var loops []loop
		ast.Inspect(f, func(n ast.Node) bool {
			vars := make(map[types.Object]bool)
			switch x := n.(type) {
			case *ast.RangeStmt:
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						if obj := u.Info.Defs[id]; obj != nil {
							vars[obj] = true
						}
					}
				}
			case *ast.ForStmt:
				if init, ok := x.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
					for _, e := range init.Lhs {
						if id, ok := e.(*ast.Ident); ok {
							if obj := u.Info.Defs[id]; obj != nil {
								vars[obj] = true
							}
						}
					}
				}
			default:
				return true
			}
			if len(vars) > 0 {
				loops = append(loops, loop{n.Pos(), n.End(), vars})
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			captured := make(map[string]bool)
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := u.Info.Uses[id]
				if obj == nil {
					return true
				}
				for _, lp := range loops {
					if lp.vars[obj] && g.Pos() > lp.pos && g.Pos() < lp.end && !captured[obj.Name()] {
						captured[obj.Name()] = true
						out = append(out, Finding{
							Pos:  u.position(id.Pos()),
							Rule: "conc-loopcapture",
							Msg:  fmt.Sprintf("goroutine closes over loop variable %q", obj.Name()),
							Hint: "pass it as an argument: go func(" + obj.Name() + " ...) {...}(" + obj.Name() + ")",
						})
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

// ---- conc-nojoin: a bare `go` with no join in sight is how the run
// service's shutdown races started — work outlives the function that
// spawned it, and nothing observes its completion or its panic. The rule
// demands visible join evidence in the spawning function: a
// sync.WaitGroup, a channel receive/range/select, or a Wait-style call.
// Deliberate fire-and-forget (e.g. an HTTP server goroutine whose
// lifetime is the process) takes a reasoned allow.

type concNoJoin struct{}

func (concNoJoin) ID() string { return "conc-nojoin" }
func (concNoJoin) Doc() string {
	return "forbid launching goroutines in functions with no visible join (WaitGroup, channel receive, select, or Wait call)"
}

func (concNoJoin) Check(u *Unit, cfg *Config) []Finding {
	var out []Finding
	for _, f := range u.reportFiles() {
		if isTestFile(u.filename(f)) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var goStmts []*ast.GoStmt
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					goStmts = append(goStmts, g)
				}
				return true
			})
			if len(goStmts) == 0 || hasJoinEvidence(u, fd.Body) {
				continue
			}
			for _, g := range goStmts {
				out = append(out, Finding{
					Pos:  u.position(g.Pos()),
					Rule: "conc-nojoin",
					Msg:  fmt.Sprintf("goroutine launched in %s with no visible join in the function", fd.Name.Name),
					Hint: "join with a WaitGroup or channel; annotate deliberate fire-and-forget with the reason",
				})
			}
		}
	}
	return out
}

// hasJoinEvidence scans a function body (goroutine bodies included — a
// worker that signals completion over a channel counts) for any
// synchronization construct that could observe goroutine completion.
func hasJoinEvidence(u *Unit, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if _, isChan := typeUnderlying[*types.Chan](u, x.X); isChan {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		case *ast.Ident:
			if obj := u.Info.Uses[x]; obj != nil {
				if namedType(obj.Type()) == "sync.WaitGroup" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
