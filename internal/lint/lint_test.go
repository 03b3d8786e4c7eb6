package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.golden files from current output")

// fixtureConfig mirrors DefaultConfig's shape with fixture-local entries,
// so the scoping tables themselves are under test rather than bypassed.
func fixtureConfig() *Config {
	return &Config{
		TimeAllowedPkgs:         map[string]bool{"platform": true, "runsvc": true},
		DurabilityPkgSubstrings: []string{"internal/runsvc", "internal/crowd"},
		FloatCmpApproved:        map[string]bool{"floateq.approxEq": true},
		DetSeamIfaces:           map[string]bool{"seam.Seam.Stamp": true},
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// TestFixtures runs the full driver (load, rules, suppression) over each
// fixture package and compares against its expect.golden. The synthetic
// import path is part of the fixture: it selects which package-scoped
// rules apply (clockok proves the det-time allowlist, durwrite opts into
// the durability rule).
func TestFixtures(t *testing.T) {
	cases := []struct {
		name       string
		importPath string
		// deps are sibling packages loaded first (subdir under the fixture
		// dir, synthetic import path); the fixture may import them, and
		// their units join the program for the call-graph stage.
		deps [][2]string
	}{
		{name: "detrand", importPath: "fixture/detrand"},
		{name: "dettime", importPath: "fixture/dettime"},
		{name: "clockok", importPath: "fixture/platform"},
		{name: "detmaprange", importPath: "fixture/detmaprange"},
		{name: "floateq", importPath: "fixture/floateq"},
		{name: "durwrite", importPath: "fixture/internal/runsvc/durwrite"},
		{name: "allowok", importPath: "fixture/allowok"},
		{name: "allowbad", importPath: "fixture/allowbad"},
		{name: "multifile", importPath: "fixture/multifile"},
		{name: "clean", importPath: "fixture/clean"},
		{name: "unlockpath", importPath: "fixture/unlockpath"},
		{name: "lockorder", importPath: "fixture/lockorder"},
		{name: "flowrand", importPath: "fixture/flowrand"},
		{name: "flowtime", importPath: "fixture/flowtime",
			deps: [][2]string{{"seam", "fixture/flowtime/seam"}, {"platform", "fixture/flowtime/platform"}}},
	}
	root := moduleRoot(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.name)
			loader, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			var units []*Unit
			for _, dep := range tc.deps {
				depUnits, err := loader.LoadDir(filepath.Join(dir, dep[0]), dep[1])
				if err != nil {
					t.Fatalf("fixture dep must type-check cleanly: %v", err)
				}
				units = append(units, depUnits...)
			}
			mainUnits, err := loader.LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("fixture must type-check cleanly: %v", err)
			}
			units = append(units, mainUnits...)
			got := renderFindings(Run(units, loader.Srcs, fixtureConfig()))

			goldenPath := filepath.Join(dir, "expect.golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// renderFindings formats findings with file basenames so goldens are
// location-independent.
func renderFindings(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	if b.Len() == 0 {
		return "(no findings)\n"
	}
	return b.String()
}

// TestRuleIDsStable pins both rule tables: a rule silently vanishing
// from a registry would disable enforcement without failing anything
// else. Each ID appears once: det-rand/det-time are program rules only.
func TestRuleIDsStable(t *testing.T) {
	want := []string{"det-maprange", "float-eq", "dur-ignored-write", "conc-unlockpath"}
	var got []string
	for _, r := range Rules() {
		got = append(got, r.ID())
		if r.Doc() == "" {
			t.Errorf("rule %s has no doc line", r.ID())
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unit rule table = %v, want %v", got, want)
	}

	wantProg := []string{"det-rand", "det-time", "conc-lockorder"}
	var gotProg []string
	for _, r := range ProgramRules() {
		gotProg = append(gotProg, r.ID())
		if r.Doc() == "" {
			t.Errorf("program rule %s has no doc line", r.ID())
		}
	}
	if fmt.Sprint(gotProg) != fmt.Sprint(wantProg) {
		t.Errorf("program rule table = %v, want %v", gotProg, wantProg)
	}
}
