package blocker

import (
	"slices"

	"github.com/corleone-em/corleone/internal/par"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/strutil"
)

// DevRule is a hand-written blocking predicate: it returns true when the
// pair is obviously NOT a match and should be dropped. These play the
// paper's "developer well versed in EM" (§9.2's Table 3 comparison) and
// supply the blocking step of Baselines 1 and 2 (Table 2).
type DevRule func(a, b record.Tuple) bool

// DeveloperRules returns the hand-written blocking rules for a dataset by
// name, together with a short description. Unknown datasets get a generic
// first-string-attribute rule.
func DeveloperRules(ds *record.Dataset) ([]DevRule, string) {
	switch ds.Name {
	case "Restaurants":
		// Small data — a developer would not block, matching the paper.
		return nil, "no blocking (Cartesian product is small)"
	case "Citations":
		ti := ds.A.Schema.Index("title")
		return []DevRule{
			func(a, b record.Tuple) bool {
				return similarity.JaccardWords(a[ti], b[ti]) < 0.12
			},
		}, "drop pairs with title word-Jaccard < 0.12"
	case "Products":
		bi := ds.A.Schema.Index("brand")
		ni := ds.A.Schema.Index("name")
		return []DevRule{
			func(a, b record.Tuple) bool {
				return strutil.Normalize(a[bi]) != strutil.Normalize(b[bi])
			},
			func(a, b record.Tuple) bool {
				return similarity.JaccardWords(a[ni], b[ni]) < 0.1
			},
		}, "drop pairs with different brands or name word-Jaccard < 0.1"
	default:
		return []DevRule{
			func(a, b record.Tuple) bool {
				return similarity.JaccardWords(a[0], b[0]) < 0.2
			},
		}, "drop pairs with first-attribute word-Jaccard < 0.2"
	}
}

// ApplyDevRules scans A×B with the hand-written rules in parallel and
// returns the surviving candidate pairs in row order of A.
func ApplyDevRules(ds *record.Dataset, rules []DevRule) []record.Pair {
	if len(rules) == 0 {
		return allPairs(ds)
	}
	nb := ds.B.Len()
	rows := make([][]record.Pair, ds.A.Len())
	par.For(len(rows), func(lo, hi int) {
		for a := lo; a < hi; a++ {
			rowA := ds.A.Rows[a]
		pairs:
			for b := 0; b < nb; b++ {
				for _, r := range rules {
					if r(rowA, ds.B.Rows[b]) {
						continue pairs
					}
				}
				rows[a] = append(rows[a], record.P(a, b))
			}
		}
	})
	return slices.Concat(rows...)
}
