// Command corlint runs the repo's invariant linters (internal/lint) over
// the module and exits nonzero on any unsuppressed finding. It is wired
// into `make lint`, scripts/verify.sh, and CI; see DESIGN.md "Enforced
// invariants" for the rule table.
//
// Usage:
//
//	corlint [./... | dir ...]     lint the module (default ./...)
//	corlint -format=json ./...    machine-readable findings
//	corlint -format=github ./...  GitHub Actions error annotations
//	corlint -rules                print the rule tables
//	corlint -alloc                compiler-backed allocation/escape gate
//	corlint -allocupdate          regenerate the alloc baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/corleone-em/corleone/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("corlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.Bool("rules", false, "print the rule tables and exit")
	format := fs.String("format", "text", "findings output: text, json, or github (Actions annotations)")
	alloc := fs.Bool("alloc", false, "run the compiler-backed allocation gate instead of the rule pipeline")
	allocUpdate := fs.Bool("allocupdate", false, "regenerate the alloc baseline from current compiler output")
	allocBaseline := fs.String("allocbaseline", "lint/allocbaseline.json", "alloc baseline `path`, relative to the module root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rules {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-18s %s\n", r.ID(), r.Doc())
		}
		for _, r := range lint.ProgramRules() {
			fmt.Fprintf(stdout, "%-18s [program] %s\n", r.ID(), r.Doc())
		}
		return 0
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(stderr, "corlint: unknown -format %q (want text, json, or github)\n", *format)
		return 2
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
	}
	if *alloc || *allocUpdate {
		return runAllocGate(root, *allocBaseline, *allocUpdate, stdout, stderr)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
	}
	units, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
	}
	// A pattern matching nothing exits 1, not 2: in CI a typo'd path is a
	// failed lint run, not a usage error to be ignored.
	units, err = filterUnits(units, fs.Args(), root, loader)
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 1
	}
	findings := lint.Run(units, loader.Srcs, lint.DefaultConfig())
	for i, f := range findings {
		if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
			findings[i].Pos.Filename = rel
		}
	}
	emitFindings(stdout, *format, findings)
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "corlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// emitFindings renders the findings in the selected format. The json
// form is one object with a findings array (stable field names, easy to
// consume from CI); the github form is one ::error annotation per
// finding, which Actions turns into inline PR comments.
func emitFindings(out io.Writer, format string, findings []lint.Finding) {
	switch format {
	case "json":
		type jsonFinding struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
			Hint string `json:"hint,omitempty"`
		}
		payload := struct {
			Findings []jsonFinding `json:"findings"`
		}{Findings: []jsonFinding{}}
		for _, f := range findings {
			payload.Findings = append(payload.Findings, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg, Hint: f.Hint,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		enc.Encode(&payload)
	case "github":
		for _, f := range findings {
			msg := f.Msg
			if f.Hint != "" {
				msg += " (hint: " + f.Hint + ")"
			}
			fmt.Fprintf(out, "::error file=%s,line=%d,col=%d::[%s] %s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, escapeAnnotation(msg))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(out, f.String())
		}
	}
}

// escapeAnnotation applies the workflow-command escaping rules for the
// message part of an annotation.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// runAllocGate drives the compiler-backed stage: analyze the hot-path
// packages, then either rewrite the baseline (-allocupdate) or diff
// against it and fail on regressions.
func runAllocGate(root, baselineRel string, update bool, stdout, stderr *os.File) int {
	loader, err := lint.NewLoader(root) // cheap: only reads go.mod for the module path
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
	}
	current, err := lint.RunAllocAnalysis(root, loader.ModPath, lint.AllocPackages)
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
	}
	baselinePath := filepath.Join(root, filepath.FromSlash(baselineRel))
	if update {
		if err := lint.WriteAllocBaseline(baselinePath, current); err != nil {
			fmt.Fprintf(stderr, "corlint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "corlint: alloc baseline written to %s (%d packages)\n", baselineRel, len(current))
		return 0
	}
	baseline, err := lint.ReadAllocBaseline(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
	}
	failures, notices := lint.DiffAllocBaseline(baseline, current)
	for _, n := range notices {
		fmt.Fprintf(stdout, "corlint: alloc notice: %s\n", n)
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, f.String())
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "corlint: alloc gate: %d regression(s) vs %s\n", len(failures), baselineRel)
		return 1
	}
	return 0
}

// filterUnits restricts analysis to the requested directories. "./..."
// (or no argument) means the whole module. A pattern that matches no
// loaded package is an error: a typo'd path silently linting nothing
// would look exactly like a clean run.
func filterUnits(units []*lint.Unit, args []string, root string, loader *lint.Loader) ([]*lint.Unit, error) {
	var dirs []string
	var pats []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			return units, nil
		}
		pats = append(pats, a)
		a = strings.TrimSuffix(a, "/...")
		abs, err := filepath.Abs(a)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, abs)
	}
	if len(dirs) == 0 {
		return units, nil
	}
	modPath := loader.ModPath
	matched := make([]bool, len(dirs))
	var out []*lint.Unit
	for _, u := range units {
		rel := strings.TrimPrefix(strings.TrimPrefix(u.Path, modPath), "/")
		dir := filepath.Join(root, filepath.FromSlash(rel))
		for i, want := range dirs {
			if dir == want || strings.HasPrefix(dir, want+string(filepath.Separator)) {
				matched[i] = true
				out = append(out, u)
				break
			}
		}
	}
	for i, ok := range matched {
		if !ok {
			return nil, fmt.Errorf("pattern %q matches no packages in the module", pats[i])
		}
	}
	return out, nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
