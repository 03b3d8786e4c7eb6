package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds corlint's whole-program view: one node per function
// declaration in the module, one per file's package-level var
// initializers, synthetic nodes for named-interface methods (edges to
// every in-repo implementer, conservatively), and taint propagation from
// nondeterminism sources. The per-unit rules see one package at a time;
// the Program is what lets det-rand/det-time say "transitively reaches"
// as well as "directly calls", and what gives conc-lockorder its
// cross-function lock sets.
//
// Object-identity note: every base unit is type-checked against the same
// loader memo, so *types.Func objects from different base packages live
// in one consistent universe. Test units re-check their own package and
// produce parallel objects, which is why nodes are keyed by stable
// strings (pkgpath.Recv.Name) rather than object pointers: a call from a
// test file to a base function lands on the same node either way.

// A FuncNode is one function (or named-interface method) in the program.
type FuncNode struct {
	// Key is the canonical node name: "pkgpath.Name" for package
	// functions, "pkgpath.Recv.Name" for methods (pointer receivers
	// stripped), and the interface's own method key for interface nodes.
	Key string
	// Display is the human form used in reported call chains, e.g.
	// "shard.(*Coordinator).Run".
	Display string
	// UnitPath is the owning unit's Path — the base package import path
	// even for test files — which is what rule scoping keys off.
	UnitPath string
	// Filename is the declaring file; Bench marks *bench_test.go files,
	// which are exempt from the determinism contract.
	Filename string
	Bench    bool
	// Decl is nil for interface nodes and for a file's initializer node
	// (keyed "init:<filename>"), whose edges are the references in the
	// file's package-level var initializers.
	Decl *ast.FuncDecl
	Unit *Unit
	// Edges are outgoing references in source order: calls, method
	// values, and function values alike (a stored `f := time.Now` is as
	// much a leak as a call). Callee keys name module nodes, interface
	// nodes, or external taint sources such as "time.Now".
	Edges []Edge
	// Iface marks a synthetic interface-method node; Impls lists the
	// node keys of every in-repo concrete method that can stand behind
	// this dispatch, sorted.
	Iface bool
	Impls []string
}

// An Edge is one resolved function reference inside a node's body.
type Edge struct {
	Pos    token.Pos
	Callee string
	// Call distinguishes a call expression from a bare function value;
	// lockorder only tracks calls, taint tracks both.
	Call bool
}

// Program is the module-wide call graph over every loaded unit.
type Program struct {
	Fset  *token.FileSet
	Nodes map[string]*FuncNode
	// pkgs is the set of loaded package import paths (plus their _test
	// variants); a function object belongs to the module iff its package
	// is in this set.
	pkgs map[string]bool
	// keys is every node key, sorted, so iteration is deterministic.
	keys []string
}

// SortedNodes returns the program's nodes in key order.
func (p *Program) SortedNodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(p.keys))
	for _, k := range p.keys {
		out = append(out, p.Nodes[k])
	}
	return out
}

// funcKey renders the canonical node key for a resolved function object.
// Generic instances collapse onto their origin; pointer receivers
// collapse onto the value type name.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	if name := recvTypeName(sig.Recv().Type()); name != "" {
		return pkg + "." + name + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvTypeName names a receiver type after stripping pointers; anonymous
// receivers (interface literals) yield "".
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// displayName renders a chain-friendly name: last import-path element
// plus the Go-style method spelling.
func displayName(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = pkgBase(fn.Pkg().Path())
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return pkg + ".(" + ptr + n.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// clockFuncs are the time functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors build seeded generators; they are the fix, not a source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func isBenchFile(name string) bool { return strings.HasSuffix(name, "bench_test.go") }

// taintSource maps an external function that injects nondeterminism to
// its source key and the rule family it poisons.
func taintSource(fn *types.Func) (source, family string) {
	if fn.Pkg() == nil {
		return "", ""
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	switch path {
	case "time":
		if clockFuncs[name] {
			return "time." + name, "time"
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "", "" // methods on a seeded *rand.Rand are the sanctioned path
		}
		if !randConstructors[name] {
			return pkgBase(path) + "." + name, "rand"
		}
	}
	return "", ""
}

// BuildProgram assembles the call graph over every unit. Each source file
// contributes its declarations exactly once (base files through the base
// unit, test files through their test unit), so edges always resolve in
// the type universe that checked the file.
func BuildProgram(units []*Unit) *Program {
	p := &Program{Nodes: make(map[string]*FuncNode), pkgs: make(map[string]bool)}
	if len(units) > 0 {
		p.Fset = units[0].Fset
	}
	for _, u := range units {
		p.pkgs[u.Path] = true
		p.pkgs[u.Path+"_test"] = true
	}

	for _, u := range units {
		for _, f := range u.reportFiles() {
			filename := u.filename(f)
			var inits []Edge
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					p.addDecl(u, filename, d)
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						inits = append(inits, p.edgesOf(u, d)...)
					}
				}
			}
			if len(inits) > 0 {
				key := "init:" + filename
				p.Nodes[key] = &FuncNode{
					Key:      key,
					Display:  f.Name.Name + ".init",
					UnitPath: u.Path,
					Filename: filename,
					Bench:    isBenchFile(filename),
					Unit:     u,
					Edges:    inits,
				}
			}
		}
	}

	p.buildInterfaceNodes(units)

	p.keys = p.keys[:0]
	for k := range p.Nodes {
		p.keys = append(p.keys, k)
	}
	sort.Strings(p.keys)
	return p
}

// addDecl adds one function declaration's node, or its edges to the node
// already under the same key.
func (p *Program) addDecl(u *Unit, filename string, decl *ast.FuncDecl) {
	fn, ok := u.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	key := funcKey(fn)
	node := p.Nodes[key]
	if node == nil {
		node = &FuncNode{
			Key:      key,
			Display:  displayName(fn),
			UnitPath: u.Path,
			Filename: filename,
			Bench:    isBenchFile(filename),
			Decl:     decl,
			Unit:     u,
		}
		p.Nodes[key] = node
	}
	if decl.Body != nil {
		node.Edges = append(node.Edges, p.edgesOf(u, decl.Body)...)
	}
}

// edgesOf resolves every function reference under root, in source order.
// References inside nested function literals are attributed to the
// enclosing declaration — the literal runs with the declaration's
// obligations.
func (p *Program) edgesOf(u *Unit, root ast.Node) []Edge {
	type edgeKey struct {
		pos    token.Pos
		callee string
	}
	var edges []Edge
	seen := make(map[edgeKey]bool)
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[call.Fun] = true
		}
		var id *ast.Ident
		var expr ast.Expr
		switch x := n.(type) {
		case *ast.SelectorExpr:
			id, expr = x.Sel, x
		case *ast.Ident:
			id, expr = x, x
		default:
			return true
		}
		fn, ok := u.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		callee := p.calleeKey(u, expr, fn)
		if callee == "" {
			return true
		}
		isCall := callFuns[expr]
		dedupe := edgeKey{id.Pos(), callee}
		if seen[dedupe] {
			return true
		}
		seen[dedupe] = true
		edges = append(edges, Edge{Pos: id.Pos(), Callee: callee, Call: isCall})
		return true
	})
	return edges
}

// calleeKey classifies one resolved function reference: an external
// taint source, a named-interface method dispatch, or a module function.
// External non-source functions are dropped — the graph only needs
// module structure plus the poisoned entry points.
func (p *Program) calleeKey(u *Unit, expr ast.Expr, fn *types.Func) string {
	if src, _ := taintSource(fn); src != "" {
		return src
	}
	if fn.Pkg() == nil || !p.pkgs[fn.Pkg().Path()] {
		return ""
	}
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		if s := u.Info.Selections[sel]; s != nil {
			if key := ifaceMethodKey(s.Recv(), fn); key != "" {
				return key
			}
		}
	}
	return funcKey(fn)
}

// ifaceMethodKey renders the node key for an interface-method dispatch,
// or "" when the receiver is not a named interface.
func ifaceMethodKey(recv types.Type, fn *types.Func) string {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	if _, isIface := n.Underlying().(*types.Interface); !isIface {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
}

// buildInterfaceNodes adds one node per named-interface method declared
// in the module, with edges to every in-repo implementer. Resolution is
// computed in the base-unit universe, where all packages share one set
// of type objects.
func (p *Program) buildInterfaceNodes(units []*Unit) {
	type namedIface struct {
		named *types.Named
		iface *types.Interface
	}
	var ifaces []namedIface
	var concrete []*types.Named
	for _, u := range units {
		if u.Kind != BaseUnit || u.Pkg == nil {
			continue
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, namedIface{named, iface})
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, ni := range ifaces {
		obj := ni.named.Obj()
		for i := 0; i < ni.iface.NumMethods(); i++ {
			m := ni.iface.Method(i)
			key := obj.Pkg().Path() + "." + obj.Name() + "." + m.Name()
			node := p.Nodes[key]
			if node == nil {
				node = &FuncNode{
					Key:      key,
					Display:  pkgBase(obj.Pkg().Path()) + "." + obj.Name() + "." + m.Name(),
					UnitPath: obj.Pkg().Path(),
					Iface:    true,
				}
				p.Nodes[key] = node
			}
			node.Iface = true
			for _, impl := range concrete {
				var recv types.Type = impl
				if !types.Implements(recv, ni.iface) {
					recv = types.NewPointer(impl)
					if !types.Implements(recv, ni.iface) {
						continue
					}
				}
				mobj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
				mfn, ok := mobj.(*types.Func)
				if !ok {
					continue
				}
				implKey := funcKey(mfn)
				if implKey == key {
					continue
				}
				node.Impls = append(node.Impls, implKey)
				node.Edges = append(node.Edges, Edge{Callee: implKey, Call: true})
			}
		}
	}
	for _, n := range p.Nodes {
		if n.Iface {
			sort.Strings(n.Impls)
			sort.Slice(n.Edges, func(i, j int) bool { return n.Edges[i].Callee < n.Edges[j].Callee })
		}
	}
}

// Taint holds, per family, the functions that transitively reach a
// source, each with one shortest witness chain of display names ending
// at the source itself.
type Taint struct {
	chains map[string][]string
}

// Chain returns the witness chain for key, or nil if untainted.
func (t *Taint) Chain(key string) []string { return t.chains[key] }

// Tainted reports whether key transitively reaches a source.
func (t *Taint) Tainted(key string) bool { return t.chains[key] != nil }

// PropagateTaint runs a BFS from every external source of the given
// family ("time" or "rand") over reverse edges, producing shortest
// chains. Ties break lexicographically so output is deterministic.
// Taint stops at the interface methods in seams (Config.DetSeamIfaces):
// a dispatch through an audited seam is quiet, so it taints no caller.
func (p *Program) PropagateTaint(family string, seams map[string]bool) *Taint {
	// Reverse adjacency: callee key -> caller node keys.
	rev := make(map[string][]string)
	sourceSet := make(map[string]bool)
	for _, key := range p.keys {
		for _, e := range p.Nodes[key].Edges {
			rev[e.Callee] = append(rev[e.Callee], key)
			if isSourceKey(e.Callee, family) {
				sourceSet[e.Callee] = true
			}
		}
	}
	for _, callers := range rev {
		sort.Strings(callers)
	}
	t := &Taint{chains: make(map[string][]string)}
	frontier := make([]string, 0, len(sourceSet))
	for s := range sourceSet {
		t.chains[s] = []string{s}
		frontier = append(frontier, s)
	}
	sort.Strings(frontier)
	for len(frontier) > 0 {
		var next []string
		for _, k := range frontier {
			base := t.chains[k]
			for _, caller := range rev[k] {
				if _, done := t.chains[caller]; done {
					continue
				}
				node := p.Nodes[caller]
				if node.Iface && seams[node.Display] {
					continue
				}
				chain := make([]string, 0, len(base)+1)
				chain = append(chain, node.Display)
				chain = append(chain, base...)
				t.chains[caller] = chain
				next = append(next, caller)
			}
		}
		sort.Strings(next)
		frontier = next
	}
	// Sources themselves are not module nodes; drop them so Tainted()
	// answers only for real functions.
	for s := range sourceSet {
		delete(t.chains, s)
	}
	return t
}

// isSourceKey reports whether an edge callee key names an external taint
// source of the family.
func isSourceKey(key, family string) bool {
	switch family {
	case "time":
		rest, ok := strings.CutPrefix(key, "time.")
		return ok && clockFuncs[rest]
	case "rand":
		return strings.HasPrefix(key, "rand.")
	}
	return false
}
