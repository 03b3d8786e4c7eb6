package main

import (
	"bytes"
	"go/token"
	"os"
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

// TestRunRefusesPackagePattern pins that corlint lints the whole module or
// nothing: the flow and lock-order rules need every package, so a single
// package would report a different set of findings.
func TestRunRefusesPackagePattern(t *testing.T) {
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	if code := run([]string{"./internal/faultkit"}, os.Stdout, stderr); code != 2 {
		t.Errorf("corlint ./internal/faultkit exited %d, want 2", code)
	}
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(msg), "./...") {
		t.Errorf("usage error does not name ./...: %q", msg)
	}
}
