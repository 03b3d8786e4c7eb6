package engine_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/experiments"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/ruleeval"
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

// TestRunPinned pins whole runs, where TestRunGoldenFingerprints pins four
// fields of four: per configuration it hashes every exported field of the
// Result (forests through forest.Save), every Listener event and every
// Checkpoint. The configurations cover the budget, phase-budget, skip,
// iteration-cap and cancel paths, and together they end in every stop
// reason a run can give. The literals were recorded before engine.Run
// became a stage list; a legitimate output change updates them and says so
// in CHANGES.md.
func TestRunPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("22 full pipeline runs")
	}
	rest := func(seed int64) experiments.Setup {
		return experiments.NewSetup("Restaurants", 0.3, experiments.DefaultErrorRate, seed)
	}
	cit := func(seed int64) experiments.Setup {
		return experiments.NewSetup("Citations", 0.03, experiments.DefaultErrorRate, seed)
	}
	budget := func(b float64) func(*engine.Config) { return func(c *engine.Config) { c.Budget = b } }
	phases := func(b float64) func(*engine.Config) {
		return func(c *engine.Config) { c.PhaseBudgets = engine.AllocateBudget(b) }
	}
	skip := func(c *engine.Config) { c.SkipEstimator = true }
	iters := func(n int) func(*engine.Config) { return func(c *engine.Config) { c.MaxIterations = n } }
	oracle := rest(4)
	oracle.ErrorRate = 0
	cases := []struct {
		name     string
		su       experiments.Setup
		tweak    func(*engine.Config)
		cancelAt int // close Cancel inside the cancelAt-th Listener event; 0 never
		want     string
	}{
		{name: "Restaurants#1", su: rest(1), want: `result=be87f4587fa0ab86 events=6:2da7eec9b2a99d51 checkpoints=4:a96f38542023075e stop="locator: difficult set too small"`},
		{name: "Citations#1", su: cit(1), want: `result=45b22c2c9016fdb3 events=6:7533c93203f5a42d checkpoints=4:96912258fd692591 stop="locator: difficult set too small"`},
		{name: "Products#1", su: experiments.NewSetup("Products", 0.05, experiments.DefaultErrorRate, 1), want: `result=9cd72c02214b5ad1 events=6:7685ade2eef5b1df checkpoints=4:0aded9fa5230fdd9 stop="locator: difficult set too small"`},
		{name: "Restaurants#4", su: rest(4), want: `result=c14de53cf1cfcd49 events=9:901cdb75a8087ad2 checkpoints=6:e4a63ddf7f6ebfdf stop="estimated accuracy did not improve"`},
		{name: "Restaurants#2", su: rest(2), want: `result=2f1d19fd7aa75cac events=6:17735ef139e2693b checkpoints=4:43fb6175da4e04c2 stop="locator: difficult set too small"`},
		{name: "Citations#3", su: cit(3), want: `result=1078cf4bbfbdae3a events=6:2320bb7033016842 checkpoints=4:28e9ce9b2c7c2463 stop="locator: difficult set too small"`},
		{name: "Restaurants#4/budget2", su: rest(4), tweak: budget(2), want: `result=b418c148e129ef68 events=4:c3da6efc12ec2a20 checkpoints=2:e2a8b1d1feaded27 stop="budget exhausted"`},
		{name: "Restaurants#4/budget30", su: rest(4), tweak: budget(30), want: `result=5c4e1029d03419a0 events=5:8873d781eb72ad94 checkpoints=3:a57a4808c5c31135 stop="budget exhausted"`},
		{name: "Citations#1/budget8", su: cit(1), tweak: budget(8), want: `result=687726cbf2111381 events=4:b50a25cb34f89cfc checkpoints=2:1c7fe1017581079f stop="budget exhausted"`},
		{name: "Restaurants#4/allocate3", su: rest(4), tweak: phases(3), want: `result=c34354e4dfec876f events=6:c0a72e706a2a91bd checkpoints=4:4468d502c318b915 stop="locator: difficult set too small"`},
		{name: "Restaurants#4/allocate60", su: rest(4), tweak: phases(60), want: `result=d4739f1a20d307b7 events=9:0b787dcb24d27e75 checkpoints=6:dc9c329c7c33bfdd stop="estimated accuracy did not improve"`},
		{name: "Citations#1/allocate10", su: cit(1), tweak: phases(10), want: `result=ed46d38b22b5fb5b events=6:482765061e9cb8e7 checkpoints=4:89f26e5e0e3b02a8 stop="locator: difficult set too small"`},
		{name: "Restaurants#4/skip", su: rest(4), tweak: skip, want: `result=d0bcf689f500ffca events=4:8bd32a014defaba1 checkpoints=2:fbecd87a1c3abc58 stop="estimator skipped"`},
		{name: "Citations#1/skip", su: cit(1), tweak: skip, want: `result=5fc1f96810716f75 events=4:29a5771494589e1b checkpoints=2:64ea0c35b93be04f stop="estimator skipped"`},
		{name: "Restaurants#4/iters1", su: rest(4), tweak: iters(1), want: `result=0d53c5bd35a7a3fb events=5:3812aa75439a251b checkpoints=3:2120fe6e03178943 stop="max iterations"`},
		{name: "Restaurants#4/iters2", su: rest(4), tweak: iters(2), want: `result=c14de53cf1cfcd49 events=9:901cdb75a8087ad2 checkpoints=6:e4a63ddf7f6ebfdf stop="estimated accuracy did not improve"`},
		{name: "Restaurants#4/oracle", su: oracle, want: `result=145a6ad64975454d events=6:202efca086a5ddf2 checkpoints=4:2d0d3f0c21ef3766 stop="locator: difficult set too small"`},
		{name: "Restaurants#4/cancel1", su: rest(4), cancelAt: 1, want: `result=14553f0f0c4e4d3e events=2:e8755c53437568e4 checkpoints=1:7cbeffb97b1d8c96 stop="canceled"`},
		{name: "Restaurants#4/cancel3", su: rest(4), cancelAt: 3, want: `result=c58a10ef4c2faea4 events=4:6d8155a9d93f93a1 checkpoints=2:18ae9f2e9bfd86a8 stop="canceled"`},
		{name: "Restaurants#4/cancel5", su: rest(4), cancelAt: 5, want: `result=cd07001963a9e15c events=5:3812aa75439a251b checkpoints=3:2120fe6e03178943 stop="canceled"`},
		{name: "Restaurants#4/cancel7", su: rest(4), cancelAt: 7, want: `result=99df17199baad2c0 events=8:da3a1efb7d5507dc checkpoints=5:a3c3cfb539c9b694 stop="canceled"`},
		{name: "Citations#1/cancel2", su: cit(1), cancelAt: 2, want: `result=ae5ca1915274813e events=2:69ff7bad77166d32 checkpoints=1:1a3c2ada30eb3e82 stop="canceled"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ds := tc.su.Dataset()
			cfg := tc.su.EngineConfig()
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			events, checkpoints := newPinHash(), newPinHash()
			cancel := make(chan struct{})
			if tc.cancelAt > 0 {
				cfg.Cancel = cancel
			}
			cfg.Listener = func(e engine.Event) {
				events.value(reflect.ValueOf(e))
				if events.n++; events.n == tc.cancelAt {
					close(cancel)
				}
			}
			cfg.Checkpoint = func(cp engine.Checkpoint) {
				checkpoints.value(reflect.ValueOf(cp))
				checkpoints.n++
			}
			res, err := engine.Run(ds, tc.su.Crowd(ds), cfg)
			if err != nil {
				t.Fatal(err)
			}
			result := newPinHash()
			result.value(reflect.ValueOf(res))
			got := fmt.Sprintf("result=%016x events=%d:%016x checkpoints=%d:%016x stop=%q",
				result.h.Sum64(), events.n, events.h.Sum64(), checkpoints.n, checkpoints.h.Sum64(), res.StopReason)
			if got != tc.want {
				t.Errorf("run moved\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestNoGainReportsBestEstimate checks that a run the estimator stopped
// reports the estimate of the matching it returns, the best iteration's,
// while EstimatorRuns keeps the rejected one.
func TestNoGainReportsBestEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	_, res, err := experiments.NewSetup("Restaurants", 0.3, experiments.DefaultErrorRate, 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "estimated accuracy did not improve" || len(res.EstimatorRuns) < 2 {
		t.Fatalf("stop %q after %d estimates, want a rejected second estimate", res.StopReason, len(res.EstimatorRuns))
	}
	best := 0
	for i, est := range res.EstimatorRuns {
		if est.F1 > res.EstimatorRuns[best].F1 {
			best = i
		}
	}
	want := res.EstimatorRuns[best]
	if res.EstimatedF1 != want.F1 || res.EstimatedPrecision != want.Precision || res.EstimatedRecall != want.Recall {
		t.Errorf("reported P=%+v R=%+v F1=%v, want iteration %d's P=%+v R=%+v F1=%v",
			res.EstimatedPrecision, res.EstimatedRecall, res.EstimatedF1, best+1, want.Precision, want.Recall, want.F1)
	}
	if !reflect.DeepEqual(res.Matches, res.IterationMatches[best]) {
		t.Errorf("returned %d matches, not iteration %d's %d", len(res.Matches), best+1, len(res.IterationMatches[best]))
	}
}

// pinHash folds values into one FNV-64a hash by reflection: every exported
// field, element and scalar, floats by their bits, forests through
// forest.Save and row sets by their rows. n counts the values a caller
// folded in.
type pinHash struct {
	h   hash.Hash64
	buf [8]byte
	n   int
}

func newPinHash() *pinHash { return &pinHash{h: fnv.New64a()} }

func (p *pinHash) word(x uint64) {
	binary.LittleEndian.PutUint64(p.buf[:], x)
	p.h.Write(p.buf[:])
}

func (p *pinHash) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			p.word(0)
			return
		}
		p.word(1)
		switch x := v.Interface().(type) {
		case *forest.Forest:
			if err := x.Save(p.h, nil); err != nil {
				panic(err)
			}
			return
		case *ruleeval.RowSet:
			p.word(uint64(x.Universe()))
			for _, r := range x.AppendTo(nil) {
				p.word(uint64(r))
			}
			return
		}
		p.value(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				p.value(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		p.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			p.value(v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		p.word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.word(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			p.word(1)
		} else {
			p.word(0)
		}
	case reflect.String:
		p.word(uint64(v.Len()))
		p.h.Write([]byte(v.String()))
	default:
		panic("pinHash: no rule for " + v.Type().String())
	}
}
