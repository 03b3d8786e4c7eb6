package feature

import (
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/record"
)

// TestReuseRule pins which columns of the benchmark's datasets get a table:
// the low-cardinality columns a value-pair table, the Monge-Elkan columns
// whose tokens recur a token-pair table (counted over the distinct values
// when a value-pair table already stands in front of the kernel, which is
// why city's 58×60 tokens get none), and a job of a few thousand pairs —
// whose best column comes back to an operand pair under four times — none.
func TestReuseRule(t *testing.T) {
	type want struct{ values, tokens bool }
	cases := []struct {
		name  string
		scale float64
		cols  map[string]want
	}{
		{"restaurants", 1.0, map[string]want{
			"name": {false, true}, "addr": {false, true}, "phone": {false, false},
			"city": {true, false}, "cuisine": {true, false}}},
		{"restaurants", 0.1, map[string]want{
			"name": {false, false}, "addr": {false, false}, "phone": {false, false},
			"city": {false, false}, "cuisine": {false, false}}},
		{"citations", 0.1, map[string]want{
			"title": {false, false}, "authors": {false, true}, "venue": {true, true}, "year": {true, false}}},
		{"products", 0.2, map[string]want{
			"brand": {true, false}, "name": {false, false}, "modelno": {false, false},
			"price": {false, false}, "category": {true, false}, "description": {false, false}}},
	}
	for _, c := range cases {
		ds, err := datagen.DatasetFor(c.name, c.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExtractor(ds)
		for idx, attr := range ds.A.Schema {
			w, ok := c.cols[attr.Name]
			if !ok {
				t.Fatalf("%s has a column %q the table does not name", c.name, attr.Name)
			}
			col := &ex.cols[idx]
			if got := col.cells != nil; got != w.values {
				t.Errorf("%s×%g %s: value-pair table = %v, want %v", c.name, c.scale, attr.Name, got, w.values)
			}
			if got := col.tokens != nil && col.tokens.Cells() > 0; got != w.tokens {
				t.Errorf("%s×%g %s: token-pair table = %v, want %v", c.name, c.scale, attr.Name, got, w.tokens)
			}
		}
	}
	for _, c := range []struct {
		evals, operands, cells int
		want                   bool
	}{
		{176423, 50 * 52, 6, true},     // Restaurants×1.0 city: 67 visits per value pair
		{1749, 31 * 22, 6, false},      // the same column in a 53×33 job: 2.6
		{4 * 90, 90, 1, true},          // exactly minReuse
		{4*90 - 1, 90, 1, false},       // just under
		{100, 0, 1, false},             // an empty dictionary
		{1 << 40, 1 << 21, 2, true},    // at the cap
		{1 << 40, 1<<21 + 1, 2, false}, // over it, whatever the reuse
		{1 << 40, 1 << 20, 6, false},   // the cap counts cells, not operand pairs
	} {
		if got := worthTable(c.evals, c.operands, c.cells); got != c.want {
			t.Errorf("worthTable(%d, %d, %d) = %v, want %v", c.evals, c.operands, c.cells, got, c.want)
		}
	}
}

// TestCrossRunRefusesOneRow pins the low end of crossRun's rule: A × one B
// row (the blocker's sample S at t_B = 1) is scored pair by pair, and from
// two B rows on the cross product gets a run.
func TestCrossRunRefusesOneRow(t *testing.T) {
	ds, err := datagen.DatasetFor("restaurants", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExtractor(ds)
	for rows, want := range []bool{false, false, true} {
		var pairs []record.Pair
		for a := 0; a < ds.A.Len(); a++ {
			for b := 0; b < rows; b++ {
				pairs = append(pairs, record.P(a, b))
			}
		}
		if got := ex.crossRun(pairs) != nil; got != want {
			t.Errorf("A × %d B rows: run = %v, want %v", rows, got, want)
		}
	}
}
