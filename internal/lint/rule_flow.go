package lint

import (
	"fmt"
	"strings"
)

// The flow rules are the interprocedural upgrade of det-rand and
// det-time: instead of only flagging direct calls, they flag a call (or
// stored function value) whose target *transitively* reaches a
// nondeterminism source through a chain the per-unit rules cannot see.
//
// To avoid cascading one root cause into a finding at every caller up
// the tree, a flow finding fires only at the taint *frontier*: a
// reference from reportable code into a tainted function whose own
// location is exempt (an allowlisted package for det-time, a
// *bench_test.go file for either family), or an interface dispatch that
// can land on such an implementer. A tainted function in reportable
// code gets its own finding — direct or frontier — so its callers stay
// quiet and the fix lands at the root.

// ProgramRule is an analyzer that needs the whole-module call graph.
type ProgramRule interface {
	ID() string
	Doc() string
	CheckProgram(p *Program, cfg *Config) []Finding
}

// flowRule implements both families; only the source set and the
// location-exemption predicate differ.
type flowRule struct {
	id     string
	family string // "time" or "rand"
	doc    string
}

func (r flowRule) ID() string  { return r.id }
func (r flowRule) Doc() string { return r.doc }

// exemptLocation reports whether a function's *location* places it
// outside this family's reporting contract — meaning taint can hide
// there and callers must be warned at the frontier.
func (r flowRule) exemptLocation(n *FuncNode, cfg *Config) bool {
	if n.Bench {
		return true
	}
	if r.family == "time" && cfg.TimeAllowedPkgs[pkgBase(n.UnitPath)] {
		return true
	}
	return false
}

func (r flowRule) CheckProgram(p *Program, cfg *Config) []Finding {
	taint := p.PropagateTaint(r.family, cfg.DetSeamIfaces)
	var out []Finding
	for _, node := range p.SortedNodes() {
		if node.Iface || node.Decl == nil {
			continue
		}
		// The caller itself must be in reportable territory.
		if r.exemptLocation(node, cfg) {
			continue
		}
		for _, e := range node.Edges {
			if isSourceKey(e.Callee, r.family) {
				continue // the per-unit rule reports direct uses
			}
			callee := p.Nodes[e.Callee]
			if callee == nil {
				continue
			}
			var chain []string
			switch {
			case callee.Iface:
				chain = r.ifaceChain(p, taint, callee, cfg)
			case taint.Tainted(callee.Key) && r.exemptLocation(callee, cfg):
				chain = taint.Chain(callee.Key)
			}
			if chain == nil {
				continue
			}
			full := append([]string{node.Display}, chain...)
			out = append(out, Finding{
				Pos:  p.Fset.Position(e.Pos),
				Rule: r.id,
				Msg: fmt.Sprintf("%s transitively reaches %s (chain: %s)",
					callee.Display, chain[len(chain)-1], strings.Join(full, " → ")),
				Hint: r.hint(),
			})
		}
	}
	return out
}

// ifaceChain resolves an interface dispatch: it fires when some tainted
// implementer hides in an exempt location. Implementers in reportable
// code carry their own findings, so they do not trigger the frontier;
// audited seam interfaces (Config.DetSeamIfaces) never do.
func (r flowRule) ifaceChain(p *Program, taint *Taint, iface *FuncNode, cfg *Config) []string {
	if cfg.DetSeamIfaces[iface.Display] {
		return nil
	}
	for _, implKey := range iface.Impls { // sorted: first match is deterministic
		impl := p.Nodes[implKey]
		if impl == nil || !taint.Tainted(implKey) || !r.exemptLocation(impl, cfg) {
			continue
		}
		return append([]string{iface.Display}, taint.Chain(implKey)...)
	}
	return nil
}

func (r flowRule) hint() string {
	if r.family == "time" {
		return "inject the clock at the boundary instead of calling through to a wall-clock read"
	}
	return "thread a seeded *rand.Rand through the helper instead of reaching the global source"
}

func detTimeFlow() ProgramRule {
	return flowRule{
		id:     "det-time",
		family: "time",
		doc:    "forbid call chains from deterministic packages that transitively reach a wall-clock read",
	}
}

func detRandFlow() ProgramRule {
	return flowRule{
		id:     "det-rand",
		family: "rand",
		doc:    "forbid call chains that transitively reach the process-global math/rand source",
	}
}
