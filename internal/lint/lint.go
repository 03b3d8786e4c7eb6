// Package lint is corlint's analyzer engine: a from-scratch, stdlib-only
// static-analysis driver (go/ast + go/parser + go/token + go/types, no
// x/tools) that enforces the repo's determinism, durability, and
// concurrency invariants. The equivalence tests pin those invariants at
// runtime for the paths they cover; corlint bans the underlying sources
// of nondeterminism and data loss mechanically, so a future refactor
// cannot reintroduce them in an uncovered path.
//
// Analysis is staged: per-unit rules run in parallel over every analysis
// unit, then a module-wide call graph (callgraph.go) is built once and
// the program rules (taint flows, cross-function lock ordering) run over
// it. Allocations are not linted: testing.AllocsPerRun tests beside the
// hot kernels pin their steady state.
//
// Findings are suppressible only with an explicit, reasoned annotation on
// the offending line (see allow.go); the driver exits nonzero on any
// unsuppressed finding, on malformed annotations, and on annotations that
// no longer suppress anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/corleone-em/corleone/internal/par"
)

// Finding is one diagnostic: position, the rule that fired, a one-line
// message, and a one-line fix hint.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	Hint string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
	if f.Hint != "" {
		s += " [hint: " + f.Hint + "]"
	}
	return s
}

// UnitKind distinguishes the three type-check variants built per package
// directory. Rules report only on a unit's Report files, so a source file
// that appears in both the base unit and the in-package-test unit is
// analyzed for reporting exactly once.
type UnitKind int

const (
	// BaseUnit holds a directory's non-test files.
	BaseUnit UnitKind = iota
	// InTestUnit holds base files plus in-package _test.go files; only
	// the test files are reported on.
	InTestUnit
	// ExtTestUnit holds an external (package foo_test) test package.
	ExtTestUnit
)

// Unit is one type-checked set of files handed to every rule.
type Unit struct {
	// Path is the import path of the package directory (the base
	// package's path even for test units) — rule scoping keys off it.
	Path   string
	Kind   UnitKind
	Fset   *token.FileSet
	Files  []*ast.File
	Report map[*ast.File]bool
	Pkg    *types.Package
	Info   *types.Info
}

// Rule is one repo-specific analyzer. Check appends findings for the
// unit's Report files only.
type Rule interface {
	ID() string
	Doc() string
	Check(u *Unit, cfg *Config) []Finding
}

// Config carries the repo-specific scoping tables so the same rules run
// unchanged over fixture packages in tests.
type Config struct {
	// TimeAllowedPkgs lists final import-path elements (e.g. "platform",
	// "runsvc") whose packages may read the wall clock: they talk to live
	// crowd platforms or journal human-readable timestamps, and are
	// excluded from the bit-identical determinism contract.
	TimeAllowedPkgs map[string]bool
	// DurabilityPkgSubstrings lists import-path fragments marking the
	// journaled write paths where dropping an Encode/Write/Flush/Sync/
	// Close error loses paid crowd work.
	DurabilityPkgSubstrings []string
	// FloatCmpApproved lists "pkgname.FuncName" comparator helpers that
	// may use ==/!= on floats: the one place exact comparison is written
	// deliberately, reviewed, and documented.
	FloatCmpApproved map[string]bool
	// DetSeamIfaces lists interface methods ("pkgname.Iface.Method")
	// that are audited determinism seams: dispatch through them may
	// reach a live, wall-clock-bound implementation by design, and the
	// caller's determinism is conditional on which implementation the
	// run wires in. The flow rules do not report dispatches through a
	// seam; the deterministic implementations behind it are still
	// checked like any other code.
	DetSeamIfaces map[string]bool
}

// DefaultConfig is the scoping used for this repository.
func DefaultConfig() *Config {
	return &Config{
		TimeAllowedPkgs: map[string]bool{
			"platform": true, // live-platform client: HIT deadlines, polling
			"runsvc":   true, // journals submission timestamps for operators
		},
		DurabilityPkgSubstrings: []string{
			"internal/runsvc",
			"internal/crowd",
			// The shard transport is not a journal, but the same failure
			// class applies: a dropped write/close error on the probe data
			// plane hides a torn stream. Discards there must carry a
			// reasoned allow, like every other audited cleanup path.
			"internal/shard",
		},
		FloatCmpApproved: map[string]bool{
			// exactEq is the audited helper for bitwise float equality;
			// route new exact comparisons through it.
			"similarity.exactEq": true,
			// keyLess compares float triples lexicographically to give
			// greedySelect a total, deterministic rule order.
			"blocker.keyLess": true,
		},
		DetSeamIfaces: map[string]bool{
			// The crowd abstraction is the system's one deliberate
			// determinism boundary: the same engine code drives either
			// the seeded simulator (bit-identical) or the live
			// marketplace client (wall-clock deadlines, human answers).
			// Callers are deterministic exactly when the simulator is
			// wired in, which the equivalence suites pin.
			"crowd.Crowd.Answer":       true,
			"crowd.CrowdErr.AnswerErr": true,
		},
	}
}

// Rules returns the per-unit analyzer table in reporting order.
func Rules() []Rule {
	return []Rule{
		detRand{},
		detTime{},
		detMapRange{},
		floatEq{},
		durIgnoredWrite{},
		concUnlockPath{},
	}
}

// ProgramRules returns the whole-program analyzers — the stages that
// need the module call graph. det-rand and det-time appear here a
// second time: the unit rule reports direct uses, the program rule the
// transitive chains the unit view cannot see; both report under one ID
// so one allow grammar covers them.
func ProgramRules() []ProgramRule {
	return []ProgramRule{
		detRandFlow(),
		detTimeFlow(),
		concLockOrder{},
	}
}

// KnownRuleIDs is the set of rule IDs an allow comment may name.
func KnownRuleIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, r := range Rules() {
		ids[r.ID()] = true
	}
	for _, r := range ProgramRules() {
		ids[r.ID()] = true
	}
	return ids
}

// Run executes the staged pipeline over the loaded units — per-unit
// rules fanned out in parallel, then the call-graph stage (taint flows,
// lock order) over the whole program — applies //corlint:allow
// suppressions, and returns the surviving findings sorted by position.
// srcs maps file names (as recorded in the fset) to raw source bytes;
// it is used to distinguish trailing from standalone allow comments.
func Run(units []*Unit, srcs map[string][]byte, cfg *Config) []Finding {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	allows, findings := collectAllows(units, srcs)

	// Stage 1: per-unit rules. Units are independent (type info is
	// read-only by now), so the fan-out follows internal/par's chunked
	// pattern: each slot writes only its own index.
	perUnit := make([][]Finding, len(units))
	par.For(len(units), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, r := range Rules() {
				perUnit[i] = append(perUnit[i], r.Check(units[i], cfg)...)
			}
		}
	})

	// Stage 2: the whole-program pass over the call graph.
	prog := BuildProgram(units)
	var programFindings []Finding
	for _, r := range ProgramRules() {
		programFindings = append(programFindings, r.CheckProgram(prog, cfg)...)
	}

	seen := make(map[string]bool)
	keep := func(f Finding) {
		key := fmt.Sprintf("%s:%d:%d:%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule)
		if seen[key] {
			return
		}
		seen[key] = true
		if allows.suppress(f) {
			return
		}
		findings = append(findings, f)
	}
	for _, fs := range perUnit {
		for _, f := range fs {
			keep(f)
		}
	}
	for _, f := range programFindings {
		keep(f)
	}
	findings = append(findings, allows.unused()...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings
}

// ---- shared helpers ----

func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// pkgFunc resolves e to a package-level function of pkgPath and returns
// it, or nil. Methods (e.g. (*rand.Rand).Intn) do not match.
func pkgFunc(u *Unit, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return nil
	}
	fn, ok := u.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// namedType returns "pkgpath.Name" for t after stripping pointers, or "".
func namedType(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// reportFiles iterates the unit's files that findings may be reported in.
func (u *Unit) reportFiles() []*ast.File {
	var out []*ast.File
	for _, f := range u.Files {
		if u.Report[f] {
			out = append(out, f)
		}
	}
	return out
}

func (u *Unit) position(p token.Pos) token.Position { return u.Fset.Position(p) }

func (u *Unit) filename(f *ast.File) string { return u.Fset.Position(f.Pos()).Filename }
