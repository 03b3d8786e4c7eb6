package feature

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/similarity"
)

// TestExtractorIndependentOfParallelism pins everything NewExtractor lays
// out besides the profiles (TestProfilesIndependentOfParallelism holds
// those) to the data alone, now that the columns build side by side: at
// GOMAXPROCS 1, 2 and 4 the feature list, in order, every column's value
// ids — read off which rows share a profile, and the value-id arrays a
// tabled column keeps — both token dictionaries of every Monge-Elkan column
// and the size of its token-pair table, and the size of every value-pair
// table are the serial build's. The instances are ones where both kinds of
// table exist (TestReuseRule), so the sizes are not zero by default.
func TestExtractorIndependentOfParallelism(t *testing.T) {
	valueTables, tokenTables := 0, 0
	for _, c := range []struct {
		name  string
		scale float64
	}{{"products", 0.2}, {"citations", 0.1}, {"restaurants", 1.0}} {
		ds, err := datagen.DatasetFor(c.name, c.scale, 0)
		if err != nil {
			t.Fatal(err)
		}
		build := func(procs int) *Extractor {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return NewExtractor(ds)
		}
		serial := build(1)
		for _, col := range serial.cols {
			valueTables += len(col.cells)
			if col.tokens != nil {
				tokenTables += col.tokens.Cells()
			}
		}
		for _, procs := range []int{2, 4} {
			ex := build(procs)
			if len(ex.features) != len(serial.features) {
				t.Fatalf("%s: %d features at GOMAXPROCS %d, %d serially", c.name, len(ex.features), procs, len(serial.features))
			}
			for i, f := range ex.features {
				want := serial.features[i]
				f.pfn, want.pfn = nil, nil
				if !reflect.DeepEqual(f, want) {
					t.Fatalf("%s: feature %d at GOMAXPROCS %d is %+v, serially %+v", c.name, i, procs, f, want)
				}
			}
			for idx, col := range ex.cols {
				want := &serial.cols[idx]
				attr := ds.A.Schema[idx].Name
				if !reflect.DeepEqual(valueIDs(col.profA), valueIDs(want.profA)) || !reflect.DeepEqual(valueIDs(col.profB), valueIDs(want.profB)) ||
					!reflect.DeepEqual(col.valA, want.valA) || !reflect.DeepEqual(col.valB, want.valB) {
					t.Fatalf("%s.%s: value ids differ between GOMAXPROCS 1 and %d", c.name, attr, procs)
				}
				if len(col.cells) != len(want.cells) || col.nValB != want.nValB || col.width != want.width {
					t.Fatalf("%s.%s: value-pair table of %d cells (%d values of B, width %d) at GOMAXPROCS %d, %d (%d, %d) serially",
						c.name, attr, len(col.cells), col.nValB, col.width, procs, len(want.cells), want.nValB, want.width)
				}
				if (col.tokens == nil) != (want.tokens == nil) {
					t.Fatalf("%s.%s: token pairs at GOMAXPROCS %d: %v, serially %v", c.name, attr, procs, col.tokens != nil, want.tokens != nil)
				}
				if col.tokens == nil {
					continue
				}
				if col.tokens.Cells() != want.tokens.Cells() {
					t.Fatalf("%s.%s: %d token-pair cells at GOMAXPROCS %d, %d serially", c.name, attr, col.tokens.Cells(), procs, want.tokens.Cells())
				}
				// Both dictionaries, and the table's every (still empty) cell.
				if !reflect.DeepEqual(col.tokens, want.tokens) {
					t.Fatalf("%s.%s: token dictionaries differ between GOMAXPROCS 1 and %d", c.name, attr, procs)
				}
			}
		}
	}
	if valueTables == 0 || tokenTables == 0 {
		t.Fatalf("%d value-pair and %d token-pair cells over the instances: a table size went unchecked", valueTables, tokenTables)
	}
}

// valueIDs numbers a per-row profile column's profiles in first-seen row
// order: the column's value ids, as the rows holding one distinct value
// share its one profile.
func valueIDs(rows []*similarity.Profile) []uint32 {
	id := map[*similarity.Profile]uint32{}
	out := make([]uint32, len(rows))
	for i, p := range rows {
		k, ok := id[p]
		if !ok {
			k = uint32(len(id))
			id[p] = k
		}
		out[i] = k
	}
	return out
}
