package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/corleone-em/corleone/internal/blocker"
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/estimator"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/locator"
	"github.com/corleone-em/corleone/internal/matcher"
	"github.com/corleone-em/corleone/internal/record"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the index of the span that caused
// this one (-1 for a root); spans of one instance or job share Instance.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Instance int    `json:"instance"`
}

// tracer keeps spans in memory until the run ends. The service workload's
// two clients record concurrently, hence the mutex.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, inst int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Instance: inst})
	return len(t.spans) - 1
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent, inst int) int {
	n := now()
	return t.add(name, n, n, parent, inst)
}

func (t *tracer) end(id int) {
	n := now()
	t.mu.Lock()
	t.spans[id].End = n.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// layerTime is one span name's total and self time over the trace. Self
// time is the span's duration minus what its child spans cover.
type layerTime struct {
	name        string
	count       int
	total, self float64
}

// layers aggregates the trace by span name, largest total first.
func (t *tracer) layers() []layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerTime{name: s.Name}
			byName[s.Name] = l
		}
		l.count++
		l.total += float64(s.End-s.Start) / 1e9
		l.self += float64(s.End-s.Start-child[i]) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, l := range byName {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total > out[j].total || out[i].total < out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].name < out[j].name
	})
	return out
}

// total is the summed duration, in seconds, of every span with this name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e9
		}
	}
	return sum
}

// write dumps the spans to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// tracedCrowd wraps the instance's crowd: it counts and times every
// Answer as a child span of whichever stage is current, so crowd wait is
// subtracted from that stage's self time.
type tracedCrowd struct {
	inner    crowd.Crowd
	tr       *tracer
	inst     int
	parent   int // span the next answers belong to
	answers  int
	lastDone time.Time // end of the most recent answer
}

func (c *tracedCrowd) Answer(p record.Pair) bool {
	t0 := now()
	a := c.inner.Answer(p)
	c.lastDone = now()
	c.tr.add("crowd.answer", t0, c.lastDone, c.parent, c.inst)
	c.answers++
	return a
}

// staged is what the staged replay of one instance leaves behind for the
// output checks and the standalone probes.
type staged struct {
	ex       *feature.Extractor
	blk      *blocker.Result
	C        []record.Pair
	X        [][]float64
	match    *matcher.Result
	est      *estimator.Result
	loc      *locator.Result
	training []record.Labeled
	matches  []record.Pair
	acct     crowd.Accounting
	answers  int
	applyS   float64 // duration of the blocker.apply span, seconds
}

// stagedReplay re-runs iteration 1 of engine.Run through the layers' public
// functions, one span per layer boundary, with the engine's own seed
// derivations (blocker s, matcher s+104729, estimator s+7, locator s+13,
// one shared rng seeded s for estimator and locator). It must reproduce
// engine.Run's first iteration bit for bit; tracedPipeline checks that.
//
// blocker.Run is one call, so its two halves are cut from outside:
// blocker.learn ends at the last crowd answer before the first Sink chunk
// (sampling, Vectors(S), active learning, rule extraction and crowd rule
// evaluation all precede it) and blocker.apply runs from there until
// blocker.Run returns.
func stagedReplay(tr *tracer, in *instance, inst int) (*staged, error) {
	ds, cfg := in.ds, in.cfg
	root := tr.begin("instance", -1, inst)
	defer tr.end(root)
	cw := &tracedCrowd{inner: in.newCrowd(), tr: tr, inst: inst, parent: root}
	stage := func(name string, f func()) {
		id := tr.begin(name, root, inst)
		cw.parent = id
		f()
		tr.end(id)
		cw.parent = root
	}

	runner := crowd.NewRunner(cw, cfg.PricePerQuestion)
	runner.SeedLabels(ds.Seeds)
	st := &staged{}
	stage("feature.extractor_build", func() { st.ex = feature.NewExtractor(ds) })
	rng := rand.New(rand.NewSource(cfg.Seed))

	bcfg := cfg.Blocker
	bcfg.Seed = cfg.Seed
	run := tr.begin("blocker.run", root, inst)
	learn := tr.begin("blocker.learn", run, inst)
	cw.parent = learn
	cw.lastDone = now()
	apply := -1
	cut := func() {
		if apply < 0 {
			apply = tr.add("blocker.apply", cw.lastDone, cw.lastDone, run, inst)
			tr.spans[learn].End = tr.spans[apply].Start
		}
	}
	bcfg.Sink = func(chunk []record.Pair) {
		cut()
		st.C = append(st.C, chunk...)
	}
	blk, err := blocker.Run(ds, st.ex, runner, bcfg)
	if err != nil {
		return nil, err
	}
	cut() // an empty umbrella set never reaches the sink
	tr.end(apply)
	tr.end(run)
	st.applyS = float64(tr.spans[apply].End-tr.spans[apply].Start) / 1e9
	cw.parent = root
	st.blk = blk

	stage("feature.vectors", func() { st.X = st.ex.Vectors(st.C) })

	// The engine's glue between blocker and matcher — the pair→vector map
	// and the deduplicated training set — is replayed too, and lands in the
	// instance span's self time.
	vecOf := make(map[record.Pair][]float64, len(st.C))
	for i, p := range st.C {
		vecOf[p] = st.X[i]
	}
	seen := record.NewPairSet()
	addTraining := func(ls []record.Labeled) {
		for _, l := range ls {
			if !seen.Has(l.Pair) {
				seen.Add(l.Pair)
				st.training = append(st.training, l)
			}
		}
	}
	addTraining(ds.Seeds)
	addTraining(blk.Training)
	initX := make([][]float64, len(st.training))
	for i, l := range st.training {
		v, ok := vecOf[l.Pair]
		if !ok {
			v = st.ex.Vector(l.Pair)
		}
		initX[i] = v
	}

	mcfg := cfg.Matcher
	mcfg.Active.Seed = cfg.Seed + 104729
	stage("matcher.run", func() {
		st.match, err = matcher.Run(runner, st.C, st.X, st.training, initX, mcfg)
	})
	if err != nil {
		return nil, err
	}
	addTraining(st.match.Training)
	st.matches = st.match.PredictedMatches(st.C)

	ecfg := cfg.Estimator
	ecfg.Seed = cfg.Seed + 7
	stage("estimator.estimate", func() {
		st.est = estimator.Estimate(rng, runner, st.match.Forest, st.C, st.X,
			st.match.Predictions, st.training, ecfg)
	})

	lcfg := cfg.Locator
	lcfg.Seed = cfg.Seed + 13
	stage("locator.locate", func() {
		st.loc = locator.Locate(rng, runner, st.match.Forest, st.C, st.X, st.training, lcfg)
	})
	st.acct = runner.Stats()
	st.answers = cw.answers
	return st, nil
}

// samePairs reports whether two pair lists are identical.
func samePairs(a, b []record.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkStaged compares a staged replay against the untraced engine.Run of
// the same instance: iteration-1 matches always; the crowd accounting too
// when the engine stopped after one iteration (a second iteration spends
// more than the replay covers).
func checkStaged(in *instance, st *staged, res *engine.Result) error {
	if len(res.IterationMatches) == 0 || !samePairs(st.matches, res.IterationMatches[0]) {
		return fmt.Errorf("%s: staged replay matches differ from engine.Run iteration 1", in.id)
	}
	if res.Iterations == 1 && st.acct != res.Accounting {
		return fmt.Errorf("%s: staged replay accounting %+v differs from engine.Run %+v", in.id, st.acct, res.Accounting)
	}
	return nil
}
