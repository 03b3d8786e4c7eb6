package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lock-discipline rules. Both key mutexes by a canonical identity so the
// same lock is recognized across functions: a struct field becomes
// "pkgpath.Type.field", a package-level var "pkgpath.name", and anything
// else (locals, complex expressions) a function-scoped identity that
// participates only in intra-function analysis.

type lockID struct {
	key    string
	global bool
}

// short renders a lock id for messages: the field/var spelling without
// the module path noise.
func (id lockID) short() string {
	key := id.key
	if i := strings.LastIndex(key, "/"); i >= 0 {
		key = key[i+1:]
	}
	return key
}

// mutexOp is one Lock/Unlock/RLock/RUnlock call at statement level.
type mutexOp struct {
	name string
	id   lockID
	pos  token.Pos
}

var mutexMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
}

// unlockFor maps an acquire to the release that balances it.
var unlockFor = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// mutexOpOf recognizes a call on a sync.Mutex, sync.RWMutex, or
// sync.Locker receiver.
func mutexOpOf(u *Unit, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mutexMethods[sel.Sel.Name] {
		return mutexOp{}, false
	}
	fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	return mutexOp{name: sel.Sel.Name, id: lockIDOf(u, sel.X), pos: call.Pos()}, true
}

// lockIDOf canonicalizes the receiver expression of a mutex operation.
func lockIDOf(u *Unit, e ast.Expr) lockID {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s := u.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			obj := s.Obj()
			if recvName := recvTypeName(s.Recv()); recvName != "" && obj.Pkg() != nil {
				return lockID{obj.Pkg().Path() + "." + recvName + "." + obj.Name(), true}
			}
		}
		if obj, ok := u.Info.Uses[x.Sel].(*types.Var); ok &&
			obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lockID{obj.Pkg().Path() + "." + obj.Name(), true}
		}
	case *ast.Ident:
		if obj, ok := u.Info.Uses[x].(*types.Var); ok {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return lockID{obj.Pkg().Path() + "." + obj.Name(), true}
			}
			return lockID{fmt.Sprintf("local:%d.%s", obj.Pos(), obj.Name()), false}
		}
	}
	return lockID{"expr:" + types.ExprString(e), false}
}

// stmtMutexOp matches a *direct* statement form — ExprStmt or DeferStmt
// wrapping a mutex call — without descending into nested statements or
// function literals.
func stmtMutexOp(u *Unit, s ast.Stmt) (mutexOp, bool, bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			op, ok := mutexOpOf(u, call)
			return op, false, ok
		}
	case *ast.DeferStmt:
		op, ok := mutexOpOf(u, x.Call)
		return op, true, ok
	}
	return mutexOp{}, false, false
}

// ---- conc-unlockpath: a Lock (or RLock) statement must be released
// later in its own statement list — by `defer mu.Unlock()` or a plain
// `mu.Unlock()` — with nothing between the two that can leave the list:
// no return, goto or labeled branch, and no break or continue aimed
// outside it. A release per return path, or a defer under an if, is a
// finding: the rule reads one statement list, not every path. A panic
// between the two is not a leak; nothing after it runs.

type concUnlockPath struct{}

func (concUnlockPath) ID() string { return "conc-unlockpath" }
func (concUnlockPath) Doc() string {
	return "forbid Lock/RLock calls whose Unlock (deferred or plain) does not follow in the same block before any return or jump"
}

func (concUnlockPath) Check(u *Unit, cfg *Config) []Finding {
	var out []Finding
	for _, f := range u.reportFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch x := n.(type) {
			case *ast.BlockStmt:
				list = x.List
			case *ast.CaseClause:
				list = x.Body
			case *ast.CommClause:
				list = x.Body
			}
			for i, s := range list {
				op, isDefer, ok := stmtMutexOp(u, s)
				if !ok || isDefer || unlockFor[op.name] == "" || releasedLater(u, op, list[i+1:]) {
					continue
				}
				out = append(out, Finding{
					Pos:  u.position(op.pos),
					Rule: "conc-unlockpath",
					Msg:  fmt.Sprintf("%s of %s is not released later in its block before a return or jump", op.name, op.id.short()),
					Hint: "defer the matching " + unlockFor[op.name] + " right after acquiring, or release it in the same block before any return",
				})
			}
			return true
		})
	}
	return out
}

// releasedLater reports whether rest holds op's release as a statement of
// its own, deferred or plain, before any statement that can leave rest.
func releasedLater(u *Unit, op mutexOp, rest []ast.Stmt) bool {
	for _, s := range rest {
		if rop, _, ok := stmtMutexOp(u, s); ok && rop.name == unlockFor[op.name] && rop.id == op.id {
			return true
		}
		if jumpsOut(s, false, false) {
			return false
		}
	}
	return false
}

// jumpsOut reports whether n can move control out of the statement list
// it sits in: a return, any labeled branch (goto included), or a break or
// continue whose loop or switch lies outside n. inLoop and inBreakable
// say whether a loop, or a loop/switch/select, inside the list encloses n.
// Loop and switch headers hold no branches, so only their bodies are
// walked; function literals are skipped, as their returns leave only the
// literal.
func jumpsOut(n ast.Node, inLoop, inBreakable bool) bool {
	out := false
	ast.Inspect(n, func(c ast.Node) bool {
		if out || c == nil {
			return false
		}
		switch x := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			out = jumpsOut(x.Body, true, true)
			return false
		case *ast.RangeStmt:
			out = jumpsOut(x.Body, true, true)
			return false
		case *ast.SwitchStmt:
			out = jumpsOut(x.Body, inLoop, true)
			return false
		case *ast.TypeSwitchStmt:
			out = jumpsOut(x.Body, inLoop, true)
			return false
		case *ast.SelectStmt:
			out = jumpsOut(x.Body, inLoop, true)
			return false
		case *ast.ReturnStmt:
			out = true
		case *ast.BranchStmt:
			out = x.Label != nil || x.Tok == token.BREAK && !inBreakable || x.Tok == token.CONTINUE && !inLoop
		}
		return !out
	})
	return out
}

// walkSkippingFuncLits visits every node under root except the bodies of
// nested function literals.
func walkSkippingFuncLits(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// ---- conc-lockorder: two mutexes acquired in both orders somewhere in
// the program is the classic AB/BA deadlock shape. The rule tracks, per
// function, which locks are held when another is acquired — directly or
// through a call whose transitive lock set is known from the call graph
// — and reports every unordered pair seen in both directions.

type concLockOrder struct{}

func (concLockOrder) ID() string { return "conc-lockorder" }
func (concLockOrder) Doc() string {
	return "forbid acquiring two mutexes in opposite orders across the program (AB/BA deadlock shape), resolved through the call graph"
}

// orderWitness is the first observation of one acquisition order.
type orderWitness struct {
	pos token.Pos
	fn  string // display name of the observing function
	via string // "" for a direct acquisition, else the callee display name
}

func (concLockOrder) CheckProgram(p *Program, cfg *Config) []Finding {
	trans := transitiveLockSets(p)

	type pairKey struct{ first, second string }
	pairs := make(map[pairKey]orderWitness)
	for _, node := range p.SortedNodes() {
		if node.Iface || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		heldWalk(p, node, trans, func(held lockID, next lockID, pos token.Pos, via string) {
			k := pairKey{held.key, next.key}
			if _, ok := pairs[k]; !ok {
				pairs[k] = orderWitness{pos: pos, fn: node.Display, via: via}
			}
		})
	}

	var keys []pairKey
	for k := range pairs {
		if k.first < k.second { // examine each unordered pair once
			if _, ok := pairs[pairKey{k.second, k.first}]; ok {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.first+"\x00"+a.second < b.first+"\x00"+b.second
	})
	var out []Finding
	for _, k := range keys {
		fwd := pairs[k]
		rev := pairs[pairKey{k.second, k.first}]
		a, b := lockID{key: k.first}, lockID{key: k.second}
		revPos := p.Fset.Position(rev.pos)
		msg := fmt.Sprintf("%s acquires %s while holding %s%s, but %s:%d acquires them in the opposite order%s",
			fwd.fn, b.short(), a.short(), viaClause(fwd.via),
			relName(revPos.Filename), revPos.Line, viaClause(rev.via))
		out = append(out, Finding{
			Pos:  p.Fset.Position(fwd.pos),
			Rule: "conc-lockorder",
			Msg:  msg,
			Hint: "pick one global acquisition order for these mutexes and use it everywhere",
		})
	}
	return out
}

func viaClause(via string) string {
	if via == "" {
		return ""
	}
	return " (via call to " + via + ")"
}

func relName(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// transitiveLockSets computes, per node, the set of *global* lock keys
// the node may acquire directly or through any call chain.
func transitiveLockSets(p *Program) map[string]map[string]bool {
	direct := make(map[string]map[string]bool)
	for _, node := range p.SortedNodes() {
		if node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		set := make(map[string]bool)
		// Function literals included: a closure handed to a worker pool
		// still acquires the lock on behalf of this function's callees.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := mutexOpOf(node.Unit, call); ok &&
				unlockFor[op.name] != "" && op.id.global {
				set[op.id.key] = true
			}
			return true
		})
		if len(set) > 0 {
			direct[node.Key] = set
		}
	}

	trans := make(map[string]map[string]bool, len(direct))
	for k, v := range direct {
		cp := make(map[string]bool, len(v))
		for id := range v {
			cp[id] = true
		}
		trans[k] = cp
	}
	// Fixpoint over call edges (references included — a stored function
	// value may be invoked later).
	for changed := true; changed; {
		changed = false
		for _, key := range p.keys {
			node := p.Nodes[key]
			for _, e := range node.Edges {
				callee := trans[e.Callee]
				if len(callee) == 0 {
					continue
				}
				mine := trans[key]
				if mine == nil {
					mine = make(map[string]bool)
					trans[key] = mine
				}
				for id := range callee {
					if !mine[id] {
						mine[id] = true
						changed = true
					}
				}
			}
		}
	}
	return trans
}

// heldWalk replays node's body in source order, tracking the approximate
// held-lock set, and reports every (held, acquired) observation: a
// direct nested acquisition, or a call into a function whose transitive
// lock set is non-empty while something is held.
func heldWalk(p *Program, node *FuncNode, trans map[string]map[string]bool, observe func(held, next lockID, pos token.Pos, via string)) {
	u := node.Unit
	var held []mutexOp
	heldHas := func(key string) bool {
		for _, h := range held {
			if h.id.key == key {
				return true
			}
		}
		return false
	}
	// Deferred calls release at return, not where they appear; collect
	// them so the walk below does not treat `defer mu.Unlock()` as an
	// immediate release (or a deferred helper call as an acquisition).
	deferCalls := make(map[*ast.CallExpr]bool)
	walkSkippingFuncLits(node.Decl.Body, func(n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferCalls[d.Call] = true
		}
	})
	walkSkippingFuncLits(node.Decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferCalls[call] {
			return
		}
		if op, ok := mutexOpOf(u, call); ok {
			if unlockFor[op.name] != "" { // acquire
				for _, h := range held {
					if h.id.key != op.id.key {
						observe(h.id, op.id, op.pos, "")
					}
				}
				held = append(held, op)
			} else { // release: drop the most recent matching hold
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].id.key == op.id.key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return
		}
		if len(held) > 0 {
			for _, calleeKey := range calleesOfCall(p, u, call) {
				callee := p.Nodes[calleeKey]
				for _, lockKey := range sortedKeys(trans[calleeKey]) {
					if heldHas(lockKey) {
						continue // re-entry, not an ordering edge
					}
					via := calleeKey
					if callee != nil {
						via = callee.Display
					}
					for _, h := range held {
						observe(h.id, lockID{key: lockKey, global: true}, call.Pos(), via)
					}
				}
			}
		}
	})
}

// calleesOfCall resolves a call expression to module node keys: the
// static callee, or an interface method node (whose edges reach every
// implementer, so transitive sets flow through it).
func calleesOfCall(p *Program, u *Unit, call *ast.CallExpr) []string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := u.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	key := p.calleeKey(u, call.Fun, fn)
	if key == "" {
		return nil
	}
	return []string{key}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
