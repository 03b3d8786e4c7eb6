package main

import (
	"bytes"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/lint"
)

func sampleFindings() []lint.Finding {
	return []lint.Finding{
		{
			Pos:  token.Position{Filename: "internal/x/y.go", Line: 12, Column: 3},
			Rule: "det-time",
			Msg:  "time.Now reads the wall clock in a deterministic package",
			Hint: "inject the clock",
		},
		{
			Pos:  token.Position{Filename: "internal/z/w.go", Line: 7, Column: 1},
			Rule: "conc-lockorder",
			Msg:  "50% of runs deadlock\nsecond line",
		},
	}
}

func TestEmitFindingsGitHub(t *testing.T) {
	var buf bytes.Buffer
	emitFindings(&buf, "github", sampleFindings())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d annotation lines, want 2:\n%s", len(lines), buf.String())
	}
	if want := "::error file=internal/x/y.go,line=12,col=3::[det-time] "; !strings.HasPrefix(lines[0], want) {
		t.Errorf("annotation = %q, want prefix %q", lines[0], want)
	}
	// Workflow commands are line-oriented: embedded newlines and percent
	// signs must be escaped or the annotation truncates.
	if strings.Contains(lines[1], "\n") || !strings.Contains(lines[1], "50%25 of runs deadlock%0Asecond line") {
		t.Errorf("annotation not escaped: %q", lines[1])
	}
}

func TestFilterUnitsRejectsEmptyMatch(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units := []*lint.Unit{{Path: loader.ModPath + "/internal/par"}}
	if _, err := filterUnits(units, []string{filepath.Join(root, "internal", "par")}, root, loader); err != nil {
		t.Errorf("matching dir rejected: %v", err)
	}
	_, err = filterUnits(units, []string{filepath.Join(root, "internal", "no-such-pkg")}, root, loader)
	if err == nil || !strings.Contains(err.Error(), "matches no packages") {
		t.Errorf("zero-match pattern must error, got %v", err)
	}
}
