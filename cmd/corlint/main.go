// Command corlint runs the repo's invariant linters (internal/lint) over
// the module and exits nonzero on any unsuppressed finding. It is wired
// into `make lint`, scripts/verify.sh, and CI; see DESIGN.md "Enforced
// invariants" for the rule table. Allocation properties of the hot
// kernels are not corlint's: testing.AllocsPerRun tests beside the
// kernels pin them.
//
// corlint always lints the whole module: the det-rand/det-time chains and
// the lock order are whole-program facts, so a subset of packages would
// report a different, wrong set of findings. Any package argument other
// than ./... is refused.
//
// Usage:
//
//	corlint [./...]               lint the module
//	corlint -format=github ./...  GitHub Actions error annotations
//	corlint -rules                print the rule tables
package main

import (
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
	format := fs.String("format", "text", "findings output: text or github (Actions annotations)")
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
	case "text", "github":
	default:
		fmt.Fprintf(stderr, "corlint: unknown -format %q (want text or github)\n", *format)
		return 2
	}
	for _, a := range fs.Args() {
		if a != "./..." {
			fmt.Fprintf(stderr, "corlint: package argument %q refused: corlint lints the whole module; give ./... or nothing\n", a)
			return 2
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "corlint: %v\n", err)
		return 2
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

// emitFindings renders the findings in the selected format. The github
// form is one ::error annotation per finding, which Actions turns into
// inline PR comments.
func emitFindings(out io.Writer, format string, findings []lint.Finding) {
	switch format {
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
