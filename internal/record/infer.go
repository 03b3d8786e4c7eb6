package record

import (
	"strings"
	"unicode"

	"github.com/corleone-em/corleone/internal/strutil"
)

// InferSchema assigns attribute types by inspecting the values of both
// tables — the hands-off path for users who upload CSVs without writing a
// schema (§3's journalist knows their column names, not type systems).
// Heuristics, per column over non-empty values:
//
//   - numeric: at least 80% parse as numbers,
//   - text: the average value has 4+ word tokens (descriptions, titles),
//   - categorical: code-like values — no internal spaces, contain digits,
//     mostly unique (identifiers such as ISBNs, model numbers, phones),
//   - string: everything else (names, cities, venues).
//
// Both tables' values vote, since one side may have sparser data. Types
// are written into both schemas in place.
func InferSchema(a, b *Table) {
	for col := range a.Schema {
		t := inferColumn(collectColumn(a, col), collectColumn(b, col))
		a.Schema[col].Type = t
		if col < len(b.Schema) {
			b.Schema[col].Type = t
		}
	}
}

func collectColumn(t *Table, col int) []string {
	out := make([]string, 0, t.Len())
	for _, row := range t.Rows {
		if col < len(row) && strings.TrimSpace(row[col]) != "" {
			out = append(out, row[col])
		}
	}
	return out
}

func inferColumn(a, b []string) AttrType {
	values := append(append([]string{}, a...), b...)
	if len(values) == 0 {
		return AttrString
	}
	var numeric, codeLike, tokens int
	seen := make(map[string]struct{}, len(values))
	for _, v := range values {
		v = strings.TrimSpace(v)
		if strutil.IsNumericString(v) {
			numeric++
		}
		if isCodeLike(v) {
			codeLike++
		}
		tokens += len(strings.Fields(v))
		seen[strings.ToLower(v)] = struct{}{}
	}
	n := len(values)
	switch {
	case float64(numeric)/float64(n) >= 0.8:
		return AttrNumeric
	case float64(tokens)/float64(n) >= 4:
		return AttrText
	case float64(codeLike)/float64(n) >= 0.8 &&
		float64(len(seen))/float64(n) >= 0.5:
		return AttrCategorical
	default:
		return AttrString
	}
}

// isCodeLike reports identifier-shaped values: single token, contains a
// digit, and mixes digits with letters or punctuation (ISBN-10, phone
// numbers, "KHX1800C9D3K2/4G").
func isCodeLike(v string) bool {
	if v == "" || strings.ContainsAny(v, " \t") {
		return false
	}
	hasDigit, hasOther := false, false
	for _, r := range v {
		if unicode.IsDigit(r) {
			hasDigit = true
		} else {
			hasOther = true
		}
	}
	return hasDigit && (hasOther || len(v) >= 6)
}
