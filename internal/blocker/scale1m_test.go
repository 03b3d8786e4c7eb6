package blocker

// The scale-1m run: the full synthetic 10^6-records-per-side profile
// pushed end-to-end through the planner's index probes. Generating the
// tables, profiling two million records, and probing the index takes
// minutes and gigabytes, so the test is gated behind CORLEONE_SCALE1M=1
// (see EXPERIMENTS.md §scale-1m); CI and tier-1 runs skip it.

import (
	"os"
	"testing"

	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/tree"
)

func TestScale1MIndexed(t *testing.T) {
	if os.Getenv("CORLEONE_SCALE1M") == "" {
		t.Skip("set CORLEONE_SCALE1M=1 to run the full-scale indexed blocking test")
	}
	ds, err := datagen.DatasetFor("scale-1m", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dataset: |A|=%d |B|=%d", ds.A.Len(), ds.B.Len())
	ex := feature.NewExtractor(ds)
	jw := featureByKind(ex, "jaccard_w")
	if jw < 0 {
		t.Fatal("no jaccard_w feature")
	}
	// A selective anchor (θ = 0.8): at 10^6 records per side anything
	// looser would emit a survivor set no machine holds.
	rules := []tree.Rule{le(jw, 0.8)}
	survivors := 0
	p := applyRulesTo(ds, ex, rules, nil, func(chunk []record.Pair) { survivors += len(chunk) })
	if !p.Indexed {
		t.Fatalf("rule should anchor an index: %s", p)
	}
	t.Logf("indexed blocking survivors: %d of %d", survivors, ds.CartesianSize())
	if survivors == 0 {
		t.Error("blocking emitted no survivors; the umbrella set would be empty")
	}
}
