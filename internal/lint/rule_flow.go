package lint

import (
	"fmt"
	"strings"
)

// det-rand and det-time run once, over the call graph. The process-global
// math/rand source makes two identical runs diverge, and a wall-clock read
// makes output depend on when the run happened; every sampling path
// threads a seeded *rand.Rand and every timing enters through an injected
// clock. A finding fires at a reference from reportable code that either
// names a source itself (`rand.Intn`, `time.Now`, in a function body or
// a package-level initializer) or reaches one through a chain.
//
// To avoid cascading one root cause into a finding at every caller up
// the tree, a chain finding fires only at the taint *frontier*: a
// reference into a tainted function whose own location is exempt (an
// allowlisted package for det-time, a *bench_test.go file for either
// family), or an interface dispatch that can land on such an implementer.
// A tainted function in reportable code gets its own finding — direct or
// frontier — so its callers stay quiet and the fix lands at the root.

// ProgramRule is an analyzer that needs the whole-module call graph.
type ProgramRule interface {
	ID() string
	Doc() string
	CheckProgram(p *Program, cfg *Config) []Finding
}

// flowRule implements both families; only the source set, the
// location-exemption predicate and the wording differ.
type flowRule struct {
	id     string
	family string // "time" or "rand"
	doc    string
	direct string // message for a direct reference; %s is the source
	fix    string // hint for a direct reference
	unwind string // hint for a chain
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
		// The caller itself must be in reportable territory.
		if node.Iface || r.exemptLocation(node, cfg) {
			continue
		}
		for _, e := range node.Edges {
			if isSourceKey(e.Callee, r.family) {
				out = append(out, Finding{
					Pos:  p.Fset.Position(e.Pos),
					Rule: r.id,
					Msg:  fmt.Sprintf(r.direct, e.Callee),
					Hint: r.fix,
				})
				continue
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
				Hint: r.unwind,
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

func detTimeFlow() ProgramRule {
	return flowRule{
		id:     "det-time",
		family: "time",
		doc:    "forbid wall-clock reads (time.Now/Since/Until), direct or through a call chain, outside the allowlisted platform/runsvc packages and benchmarks",
		direct: "%s reads the wall clock in a deterministic package",
		fix:    "inject the clock (or move the timing into platform/runsvc/benchmarks)",
		unwind: "inject the clock at the boundary instead of calling through to a wall-clock read",
	}
}

func detRandFlow() ProgramRule {
	return flowRule{
		id:     "det-rand",
		family: "rand",
		doc:    "forbid the process-global math/rand source, direct or through a call chain, outside benchmarks; all randomness must flow from an explicit seed",
		direct: "%s uses the process-global random source; runs are not reproducible",
		fix:    "thread a seeded *rand.Rand (rand.New(rand.NewSource(seed))) from Config.Seed",
		unwind: "thread a seeded *rand.Rand through the helper instead of reaching the global source",
	}
}
