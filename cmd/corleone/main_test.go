package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	corleone "github.com/corleone-em/corleone"
)

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("0:0:yes, 5:3:y,0:1:no,2:9:N")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("seeds = %d", len(got))
	}
	if !got[0].Match || got[0].Pair != corleone.P(0, 0) {
		t.Errorf("seed[0] = %+v", got[0])
	}
	if !got[1].Match || got[1].Pair != corleone.P(5, 3) {
		t.Errorf("seed[1] = %+v", got[1])
	}
	if got[3].Match {
		t.Error("seed[3] should be negative")
	}
	for _, bad := range []string{"", "1:2", "a:b:yes", "1:2:maybe"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

func TestLoadGold(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gold.csv")
	if err := os.WriteFile(path, []byte("rowA,rowB\n0,0\n3,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	truth, err := loadGold(path)
	if err != nil {
		t.Fatal(err)
	}
	if truth.NumMatches() != 2 || !truth.Match(corleone.P(3, 5)) {
		t.Errorf("gold = %v", truth.Matches())
	}
	if _, err := loadGold(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRenderPair(t *testing.T) {
	ds := corleone.GenerateDataset(corleone.ScaledProfile(corleone.RestaurantsProfile, 0.1))
	out := renderPair(ds, corleone.P(0, 0))
	if !strings.Contains(out, "name") || !strings.Contains(out, "|") {
		t.Errorf("renderPair = %q", out)
	}
}

// TestCheckNumbers: the numeric flags are range-checked as POST /jobs checks
// a job's Meta, and a refusal names the flag.
func TestCheckNumbers(t *testing.T) {
	type flags struct {
		errRate, price, budget float64
	}
	ok := flags{errRate: 0.05, price: 0.01}
	for _, c := range []struct {
		name string
		f    flags
		flag string // empty: accepted
	}{
		{"defaults", ok, ""},
		{"oracle, free, capped budget", flags{0, 0, 500}, ""},
		{"every answer wrong", flags{1, 0.01, 0}, ""},
		{"error above 1", flags{1.5, 0.01, 0}, "-error"},
		{"negative error", flags{-0.1, 0.01, 0}, "-error"},
		{"NaN error", flags{math.NaN(), 0.01, 0}, "-error"},
		{"negative price", flags{0.05, -0.01, 0}, "-price"},
		{"NaN price", flags{0.05, math.NaN(), 0}, "-price"},
		{"negative budget", flags{0.05, 0.01, -1}, "-budget"},
	} {
		err := checkNumbers(c.f.errRate, c.f.price, c.f.budget)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%s: %q does not name %s", c.name, err, c.flag)
		}
	}
}
