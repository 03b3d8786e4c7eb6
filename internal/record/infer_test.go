package record

import (
	"testing"

	"github.com/corleone-em/corleone/internal/strutil"
)

func TestInferSchema(t *testing.T) {
	schema := Schema{
		{Name: "name"}, {Name: "price"}, {Name: "modelno"},
		{Name: "description"}, {Name: "year"},
	}
	a := NewTable("a", schema)
	b := NewTable("b", append(Schema{}, schema...))
	a.Append(Tuple{"kingston hyperx", "49.99", "KHX1800C9", "fast reliable memory kit for desktops", "2013"})
	a.Append(Tuple{"sony camera", "$299.00", "SC900X", "compact zoom lens with image stabilization", "2012"})
	a.Append(Tuple{"dell monitor", "189.50", "DM2412B", "full hd display with adjustable stand included", "2011"})
	b.Append(Tuple{"Kingston HyperX", "48.99", "khx1800c9", "fast memory kit great for desktops", ""})
	b.Append(Tuple{"Sony Cam", "310", "SC900X", "zoom lens camera compact body", "2012"})
	b.Append(Tuple{"", "", "", "", ""})

	InferSchema(a, b)

	want := map[string]AttrType{
		"name":        AttrString,
		"price":       AttrNumeric,
		"modelno":     AttrCategorical,
		"description": AttrText,
		"year":        AttrNumeric,
	}
	for i, attr := range a.Schema {
		if attr.Type != want[attr.Name] {
			t.Errorf("column %q inferred %v, want %v", attr.Name, attr.Type, want[attr.Name])
		}
		if b.Schema[i].Type != attr.Type {
			t.Errorf("column %q: B schema not updated", attr.Name)
		}
	}
}

func TestInferColumnEmpty(t *testing.T) {
	if got := inferColumn(nil, nil); got != AttrString {
		t.Errorf("empty column inferred %v", got)
	}
}

func TestIsCodeLike(t *testing.T) {
	yes := []string{"KHX1800C9D3K2/4G", "978-0262033848", "608-233-1200", "SC900X"}
	no := []string{"kingston hyperx", "", "hello", "new york"}
	for _, v := range yes {
		if !isCodeLike(v) {
			t.Errorf("isCodeLike(%q) = false", v)
		}
	}
	for _, v := range no {
		if isCodeLike(v) {
			t.Errorf("isCodeLike(%q) = true", v)
		}
	}
}

// TestInferNumericColumn checks that a column infers as numeric exactly
// when strutil.ParseNumeric, which the numeric features read values with,
// can read it.
func TestInferNumericColumn(t *testing.T) {
	cases := []struct {
		column []string
		want   bool
	}{
		{[]string{"42", "$19.99", "1,234", "-3.5"}, true},
		{[]string{"2013", "2012", "+2011"}, true},
		{[]string{"12a"}, false},
		{[]string{"1.2.3"}, false},
		{[]string{"abc"}, false},
		{[]string{"$"}, false},
		// Arabic-Indic years: as a numeric column, year_rel_diff and
		// year_abs_diff would read Missing on every pair.
		{[]string{"٢٠١٣", "٢٠١٢", "٢٠١١"}, false},
	}
	for _, tc := range cases {
		if got := inferColumn(tc.column, nil) == AttrNumeric; got != tc.want {
			t.Errorf("column %q numeric = %v, want %v", tc.column, got, tc.want)
		}
		for _, v := range tc.column {
			if _, ok := strutil.ParseNumeric(v); ok != tc.want {
				t.Errorf("strutil.ParseNumeric(%q) ok = %v, want %v", v, ok, tc.want)
			}
		}
	}
}
