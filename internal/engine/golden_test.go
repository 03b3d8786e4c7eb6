package engine_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/experiments"
)

// TestRunGoldenFingerprints pins the output of four default-shaped runs to
// literals recorded at the commit before row sets became bitsets. The
// determinism tests compare a run with another run of the same binary; this
// one compares it with a past commit, so a change that claims to be
// bit-identical (a new data layout, a different selection algorithm, a
// reordered loop) has to prove it in tier-1. Datasets, crowd (5% noise) and
// seeds of the first three are the bench -tiny instances. A legitimate output change updates
// the literals and says so in CHANGES.md.
func TestRunGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("four full pipeline runs")
	}
	cases := []struct {
		dataset string
		scale   float64
		seed    int64
		want    string
	}{
		{"Restaurants", 0.3, 1, `matches=32:4071a9424ada806b acct={Answers:456 Pairs:205 Cost:4.559999999999947 HITs:10 Degraded:false} estF1=4059000000000000 iters=1 stop="locator: difficult set too small" rules=[] umbrella=15741 difficult=[0]`},
		{"Citations", 0.03, 1, `matches=141:07535fbae3fc868c acct={Answers:1109 Pairs:486 Cost:11.089999999999808 HITs:41 Degraded:false} estF1=4059000000000000 iters=1 stop="locator: difficult set too small" rules=[(authors_jaro_winkler <= 0.7274) -> No] umbrella=551 difficult=[2]`},
		{"Products", 0.05, 1, `matches=57:7e927cc188585d18 acct={Answers:1434 Pairs:655 Cost:28.679999999999477 HITs:53 Degraded:false} estF1=40585616a7a5616a iters=1 stop="locator: difficult set too small" rules=[(brand_monge_elkan <= 0.8875) -> No] umbrella=3053 difficult=[28]`},
		// Seed 4 is the cheapest instance found that runs a second iteration
		// (over the located difficult set), which the three above never do.
		{"Restaurants", 0.3, 4, `matches=36:ea0a9e0916e0bd16 acct={Answers:9850 Pairs:4585 Cost:98.50000000001349 HITs:50 Degraded:false} estF1=4057924924924924 iters=2 stop="estimated accuracy did not improve" rules=[] umbrella=15741 difficult=[3452]`},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s#%d", tc.dataset, tc.seed), func(t *testing.T) {
			t.Parallel()
			su := experiments.NewSetup(tc.dataset, tc.scale, experiments.DefaultErrorRate, tc.seed)
			_, res, err := su.Run()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, p := range res.Matches {
				binary.LittleEndian.PutUint32(buf[:4], uint32(p.A))
				binary.LittleEndian.PutUint32(buf[4:], uint32(p.B))
				h.Write(buf[:])
			}
			var rules []string
			for _, r := range res.Blocking.Selected {
				rules = append(rules, r.Render(func(i int) string { return res.FeatureNames[i] }))
			}
			var difficult []int
			for _, d := range res.DifficultSets {
				difficult = append(difficult, len(d))
			}
			got := fmt.Sprintf("matches=%d:%016x acct=%+v estF1=%x iters=%d stop=%q rules=[%s] umbrella=%d difficult=%v",
				len(res.Matches), h.Sum64(), res.Accounting, math.Float64bits(res.EstimatedF1),
				res.Iterations, res.StopReason, strings.Join(rules, " ; "), len(res.Blocking.Candidates), difficult)
			if got != tc.want {
				t.Errorf("fingerprint moved\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}
