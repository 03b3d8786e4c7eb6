package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

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
