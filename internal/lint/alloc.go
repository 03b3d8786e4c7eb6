package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The allocation gate is corlint's compiler-backed stage: instead of
// approximating escape analysis itself, it asks the real compiler
// (`go build -gcflags=<pkg>=-m=1`), buckets the diagnostics by enclosing
// function, and diffs them against a checked-in baseline. A hot-path
// change that introduces a new heap escape — or knocks a guarded
// function out of inlining — fails the build with the exact compiler
// message, the way a perf regression should: before it is merged, not
// after a profile shows it.
//
// The build cache replays -m diagnostics on cache hits, so repeated runs
// cost one compile the first time and essentially nothing after.

// AllocPackages lists the module-relative hot-path packages the gate
// guards: the scoring, similarity, and transport kernels where a stray
// allocation shows up directly in probe throughput, the extractor build
// (feature, strutil) whose per-record allocations lead the profile once
// blocking goes through the index, and the row-set stages after blocking
// (ruleeval, estimator, locator, blocker), whose loops run once per round
// or probe over sets the size of the candidate set.
var AllocPackages = []string{
	"internal/active",
	"internal/blocker",
	"internal/estimator",
	"internal/feature",
	"internal/forest",
	"internal/locator",
	"internal/ruleeval",
	"internal/shard",
	"internal/simindex",
	"internal/similarity",
	"internal/stats",
	"internal/strutil",
}

// FuncAlloc is the compiler's verdict for one function: every escape
// diagnostic attributed to its body (sorted, duplicates kept — two
// escapes of the same shape are two allocations) and whether the
// function itself stayed inlinable.
type FuncAlloc struct {
	Escapes   []string `json:"escapes,omitempty"`
	CanInline bool     `json:"can_inline"`
}

// AllocBaseline is the checked-in snapshot the gate diffs against. Keys
// are module-relative package paths, then compiler-style function names
// ("F", "T.M", "(*T).M").
type AllocBaseline struct {
	Comment  string                           `json:"_comment,omitempty"`
	Packages map[string]map[string]*FuncAlloc `json:"packages"`
}

const allocBaselineComment = "corlint -alloc baseline: per-function escape diagnostics and inlinability from go build -gcflags=-m=1. Regenerate with `go run ./cmd/corlint -allocupdate` after a reviewed hot-path change."

// RunAllocAnalysis compiles each package with -m=1 and returns the
// bucketed per-function facts, keyed like the baseline.
func RunAllocAnalysis(modRoot, modPath string, pkgs []string) (map[string]map[string]*FuncAlloc, error) {
	out := make(map[string]map[string]*FuncAlloc, len(pkgs))
	for _, pkg := range pkgs {
		diags, err := compileWithEscapes(modRoot, modPath, pkg)
		if err != nil {
			return nil, err
		}
		spans, err := allocFuncSpans(modRoot, pkg)
		if err != nil {
			return nil, err
		}
		out[pkg] = bucketAllocDiags(diags, spans)
	}
	return out, nil
}

// AllocDiag is one parsed compiler diagnostic.
type AllocDiag struct {
	File string // module-relative, as the compiler prints it
	Line int
	Kind allocKind
	// Name is the function name for inline verdicts, the message text
	// for escapes.
	Name string
}

type allocKind int

const (
	allocCanInline allocKind = iota
	allocCannotInline
	allocEscape
)

// compileWithEscapes shells out to the toolchain already proven present
// by the build itself; -gcflags is scoped to the one package so
// dependencies compile quietly (and stay cached).
func compileWithEscapes(modRoot, modPath, pkg string) ([]AllocDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags="+modPath+"/"+pkg+"=-m=1", "./"+pkg)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m=1 %s: %v\n%s", pkg, err, out)
	}
	return ParseAllocOutput(string(out)), nil
}

// ParseAllocOutput parses `go build -gcflags=-m=1` output into the
// diagnostics the gate cares about. Inlining-call and param-leak lines
// are deliberately dropped: they describe call sites and signatures, not
// allocations, and churn with every edit.
func ParseAllocOutput(out string) []AllocDiag {
	var diags []AllocDiag
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, ln, msg, ok := splitDiagLine(line)
		if !ok {
			continue
		}
		switch {
		case strings.HasPrefix(msg, "can inline "):
			diags = append(diags, AllocDiag{file, ln, allocCanInline, strings.TrimPrefix(msg, "can inline ")})
		case strings.HasPrefix(msg, "cannot inline "):
			name := strings.TrimPrefix(msg, "cannot inline ")
			if i := strings.IndexByte(name, ':'); i >= 0 {
				name = name[:i]
			}
			diags = append(diags, AllocDiag{file, ln, allocCannotInline, name})
		case strings.HasSuffix(msg, " escapes to heap"), strings.HasPrefix(msg, "moved to heap: "):
			diags = append(diags, AllocDiag{file, ln, allocEscape, msg})
		}
	}
	return diags
}

// splitDiagLine splits "path:line:col: msg" (the col is optional).
func splitDiagLine(line string) (file string, ln int, msg string, ok bool) {
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	j := strings.IndexByte(rest, ':')
	if j < 0 {
		return "", 0, "", false
	}
	ln, err := strconv.Atoi(rest[:j])
	if err != nil {
		return "", 0, "", false
	}
	rest = rest[j+1:]
	// Optional column.
	if k := strings.IndexByte(rest, ':'); k >= 0 {
		if _, err := strconv.Atoi(rest[:k]); err == nil {
			rest = rest[k+1:]
		}
	}
	return file, ln, strings.TrimSpace(rest), true
}

// funcSpan locates one declaration so diagnostics can be attributed to
// the function that owns them. Name matches the compiler's spelling.
type funcSpan struct {
	File       string
	Start, End int
	Name       string
}

// allocFuncSpans parses the package's non-test files (syntax only — no
// type information is needed to attribute a line to a declaration).
func allocFuncSpans(modRoot, pkg string) ([]funcSpan, error) {
	dir := filepath.Join(modRoot, filepath.FromSlash(pkg))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	fset := token.NewFileSet()
	var spans []funcSpan
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || isTestFile(name) ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		rel := pkg + "/" + name
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			spans = append(spans, funcSpan{
				File:  rel,
				Start: fset.Position(fd.Pos()).Line,
				End:   fset.Position(fd.End()).Line,
				Name:  compilerFuncName(fd),
			})
		}
	}
	return spans, nil
}

// compilerFuncName renders a declaration the way -m names it:
// "F" for package functions, "T.M" and "(*T).M" for methods.
func compilerFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
		ptr = true
	}
	// Strip type parameters on generic receivers.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if idx, ok := t.(*ast.IndexListExpr); ok {
		t = idx.X
	}
	name := "?"
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	if ptr {
		return "(*" + name + ")." + fd.Name.Name
	}
	return name + "." + fd.Name.Name
}

// bucketAllocDiags joins diagnostics to their enclosing declarations.
// Inline verdicts carry the function name directly; escapes are located
// by line. Escapes outside any declaration (package-level initializers)
// are bucketed under "<init>". Every declared function gets an entry
// even with no diagnostics — -m=1 is silent about a function that
// neither inlines nor escapes, and the gate must still notice when such
// a function gains its first escape.
func bucketAllocDiags(diags []AllocDiag, spans []funcSpan) map[string]*FuncAlloc {
	out := make(map[string]*FuncAlloc)
	get := func(name string) *FuncAlloc {
		fa := out[name]
		if fa == nil {
			fa = &FuncAlloc{}
			out[name] = fa
		}
		return fa
	}
	for _, s := range spans {
		get(s.Name)
	}
	find := func(file string, line int) string {
		for _, s := range spans {
			if s.File == file && line >= s.Start && line <= s.End {
				return s.Name
			}
		}
		return "<init>"
	}
	for _, d := range diags {
		switch d.Kind {
		case allocCanInline:
			get(d.Name).CanInline = true
		case allocCannotInline:
			get(d.Name) // recorded with CanInline=false
		case allocEscape:
			fa := get(find(d.File, d.Line))
			fa.Escapes = append(fa.Escapes, d.Name)
		}
	}
	for _, fa := range out {
		sort.Strings(fa.Escapes)
	}
	return out
}

// AllocFailure is one gate violation, printable like a finding.
type AllocFailure struct {
	Pkg  string
	Func string
	Msg  string
	Hint string
}

func (f AllocFailure) String() string {
	s := fmt.Sprintf("%s: %s: alloc-gate: %s", f.Pkg, f.Func, f.Msg)
	if f.Hint != "" {
		s += " [hint: " + f.Hint + "]"
	}
	return s
}

// DiffAllocBaseline compares a fresh analysis against the baseline.
// Failures are regressions (new escapes, lost inlining, vanished guarded
// functions); notices are drift worth re-baselining but not worth
// breaking the build over (improvements, new unguarded functions).
func DiffAllocBaseline(baseline *AllocBaseline, current map[string]map[string]*FuncAlloc) (failures []AllocFailure, notices []string) {
	rebaseHint := "if the change is a reviewed tradeoff, regenerate with go run ./cmd/corlint -allocupdate"
	for _, pkg := range sortedStringKeys(current) {
		base := baseline.Packages[pkg]
		if base == nil {
			notices = append(notices, fmt.Sprintf("%s: package not in baseline; run -allocupdate to guard it", pkg))
			continue
		}
		cur := current[pkg]
		for _, fn := range sortedStringKeys(cur) {
			bf := base[fn]
			cf := cur[fn]
			if bf == nil {
				if len(cf.Escapes) > 0 {
					notices = append(notices, fmt.Sprintf("%s: %s: new function with %d escape(s) is not yet guarded; -allocupdate will pin it", pkg, fn, len(cf.Escapes)))
				}
				continue
			}
			for _, msg := range multisetNew(bf.Escapes, cf.Escapes) {
				failures = append(failures, AllocFailure{pkg, fn, "new heap escape: " + msg, rebaseHint})
			}
			if gone := multisetNew(cf.Escapes, bf.Escapes); len(gone) > 0 {
				notices = append(notices, fmt.Sprintf("%s: %s: %d baseline escape(s) are gone — improvement; -allocupdate to lock it in", pkg, fn, len(gone)))
			}
			if bf.CanInline && !cf.CanInline {
				failures = append(failures, AllocFailure{pkg, fn, "no longer inlinable (baseline says can inline)", rebaseHint})
			}
		}
		for _, fn := range sortedStringKeys(base) {
			if cur[fn] == nil {
				failures = append(failures, AllocFailure{pkg, fn, "guarded function missing from compiler output (renamed or deleted?)", rebaseHint})
			}
		}
	}
	return failures, notices
}

// multisetNew returns the entries of b that exceed their count in a,
// i.e. what b gained relative to a. Inputs are sorted.
func multisetNew(a, b []string) []string {
	counts := make(map[string]int, len(a))
	for _, s := range a {
		counts[s]++
	}
	var out []string
	for _, s := range b {
		if counts[s] > 0 {
			counts[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}

func sortedStringKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReadAllocBaseline loads the checked-in baseline.
func ReadAllocBaseline(path string) (*AllocBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: alloc baseline: %w (run -allocupdate to create it)", err)
	}
	var b AllocBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: alloc baseline %s: %w", path, err)
	}
	if b.Packages == nil {
		b.Packages = make(map[string]map[string]*FuncAlloc)
	}
	return &b, nil
}

// WriteAllocBaseline persists an analysis as the new baseline. JSON map
// keys marshal sorted, so the file is deterministic and diffs cleanly.
func WriteAllocBaseline(path string, current map[string]map[string]*FuncAlloc) error {
	b := AllocBaseline{Comment: allocBaselineComment, Packages: current}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
