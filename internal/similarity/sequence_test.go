package similarity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNeedlemanWunsch(t *testing.T) {
	if NeedlemanWunsch("same", "same") != 1 {
		t.Error("identical should be 1")
	}
	if NeedlemanWunsch("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if NeedlemanWunsch("abc", "") != 0 {
		t.Error("one empty should be 0")
	}
	if NeedlemanWunsch("aaaa", "bbbb") != 0 {
		t.Error("totally different should clamp at 0")
	}
	// A single substitution costs a bit but stays high.
	s := NeedlemanWunsch("kitten", "mitten")
	if s < 0.5 || s >= 1 {
		t.Errorf("one substitution = %v", s)
	}
}

func TestSmithWatermanLocalCore(t *testing.T) {
	// A shared core inside unrelated text dominates local alignment.
	local := SmithWaterman("xxxxx hyperx 4gb yyyyy", "hyperx 4gb")
	global := NeedlemanWunsch("xxxxx hyperx 4gb yyyyy", "hyperx 4gb")
	if local <= global {
		t.Errorf("local %v should exceed global %v on embedded cores", local, global)
	}
	if SmithWaterman("same", "same") != 1 {
		t.Error("identical should be 1")
	}
	if SmithWaterman("", "x") != 0 {
		t.Error("one empty should be 0")
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	if got := LongestCommonSubstring("abcdef", "zzcdezz"); math.Abs(got-3.0/7) > 1e-12 {
		t.Errorf("LCS = %v, want 3/7", got)
	}
	if LongestCommonSubstring("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if LongestCommonSubstring("abc", "xyz") != 0 {
		t.Error("no common substring should be 0")
	}
}

func TestSoundexKnownCodes(t *testing.T) {
	// Classic reference values.
	cases := map[string]string{
		"Robert":   "R163",
		"Rupert":   "R163",
		"Ashcraft": "A261", // H is transparent
		"Ashcroft": "A261",
		"Tymczak":  "T522",
		"Pfister":  "P236",
		"Honeyman": "H555",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q) = %q, want %q", in, got, want)
		}
	}
	if Soundex("") != "" {
		t.Error("empty word should give empty code")
	}
}

func TestSoundexSim(t *testing.T) {
	if got := SoundexSim("jude shavlik", "jude shavlick"); got != 1 {
		t.Errorf("phonetic variants = %v, want 1", got)
	}
	if SoundexSim("alpha", "omega") != 0 {
		t.Error("unrelated words should be 0")
	}
	if SoundexSim("", "") != 1 {
		t.Error("two empties should be 1")
	}
	// Equal token counts, one side repeating a code: "every code of a is in
	// b" held one way only (1 vs 0.5) while tokens, not distinct codes,
	// were counted.
	a, b := "robert rupert", "robert alpha"
	if ab, ba := SoundexSim(a, b), SoundexSim(b, a); ab != 1 || ba != 1 {
		t.Errorf("SoundexSim(%q, %q) = %v, reversed = %v, want 1 both ways", a, b, ab, ba)
	}
}

func TestCosineQGrams(t *testing.T) {
	if got := CosineQGrams("match", "match"); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical = %v", got)
	}
	if CosineQGrams("", "") != 1 {
		t.Error("two empties should be 1")
	}
	if CosineQGrams("abc", "") != 0 {
		t.Error("one empty should be 0")
	}
	// Reordered tokens keep interior grams (the padding grams at the
	// boundary differ, so the score is high but not 1).
	got := CosineQGrams("data mining", "mining data")
	if got < 0.4 || got >= 1 {
		t.Errorf("reordered = %v, want in [0.4, 1)", got)
	}
	// And reordering scores far above unrelated text.
	if unrelated := CosineQGrams("data mining", "zebra quilt"); got <= unrelated {
		t.Errorf("reordered %v should beat unrelated %v", got, unrelated)
	}
}

func TestSequenceMeasureRanges(t *testing.T) {
	unitRange(t, "NeedlemanWunsch", NeedlemanWunsch)
	unitRange(t, "SmithWaterman", SmithWaterman)
	unitRange(t, "LongestCommonSubstring", LongestCommonSubstring)
	unitRange(t, "SoundexSim", SoundexSim)
	unitRange(t, "CosineQGrams", CosineQGrams)
}

func TestSoundexDeterministic(t *testing.T) {
	f := func(s string) bool { return Soundex(s) == Soundex(s) }
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Error(err)
	}
}
