// Package runsvc is the durable run-orchestration service: it manages many
// concurrent Corleone jobs end-to-end. A bounded executor pool runs
// engine.Run instances in parallel, each wired through the engine's
// Listener/Cancel/Checkpoint hooks for live status, prompt cancellation,
// and journaling. Every job appends its durable state — every crowd answer
// paid for, phase/cost checkpoints, per-iteration model snapshots — to an
// on-disk journal, flushed at crowd batch boundaries, so a killed process
// resumes without buying any journaled answer again.
//
// Resume is answer replay, matching the paper's §8.3 label-reuse
// semantics: computation is cheap and deterministic under a fixed seed,
// crowd answers are the expensive state. A resumed job re-executes the
// pipeline from the start, and each time it asks about a pair the journal
// holds answers for, it is served those answers in order instead of asking
// the crowd. So it re-derives every vote, HIT packing and accounting field
// of the run it continues, under a noisy crowd as under a perfect one,
// and asks the crowd only for the answers the crash lost.
package runsvc

import (
	"fmt"
	"strings"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
	"github.com/corleone-em/corleone/internal/retry"
)

// Spec describes one job. Library callers may fill Dataset/Crowd/Config
// directly; jobs submitted over HTTP (and jobs that should be resumable
// from the journal alone, in a fresh process) carry a Meta, from which the
// other fields are reconstructed deterministically.
type Spec struct {
	// Name labels the job; job ids derive from it.
	Name string
	// Dataset is the data to match and Crowd the answer source.
	Dataset *record.Dataset
	Crowd   crowd.Crowd
	// Config is the engine configuration. Runner, Cancel, and Checkpoint
	// are owned by the service and must be left nil; Listener, if set, is
	// chained after the service's own event listener.
	Config engine.Config
	// Meta, when non-nil, is the serializable description stored in the
	// journal. When Dataset/Crowd are nil they are built from it.
	Meta *Meta
	// Retry bounds the runner's re-solicitation when Crowd implements
	// crowd.CrowdErr (zero values = the crowd package defaults). Tests and
	// chaos runs shrink it to keep wall clock down.
	Retry retry.Policy
}

// Meta is the serializable job description: everything needed to
// reconstruct the dataset, crowd, and engine configuration in a fresh
// process. Reconstruction is deterministic (synthetic datasets are seeded),
// which is what makes journal-only resume possible.
type Meta struct {
	// Profile names the synthetic dataset family: "restaurants",
	// "citations", "products", or "scale-1m" (any spelling
	// datagen.ProfileByName accepts).
	Profile string `json:"profile"`
	// Scale shrinks the paper-scale profile (0 or >=1 = full scale).
	Scale float64 `json:"scale,omitempty"`
	// Noise overrides the generator's perturbation dial (0 = default).
	Noise float64 `json:"noise,omitempty"`
	// ErrorRate sets the simulated crowd's per-answer flip probability;
	// 0 means a perfect (oracle) crowd.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// Seed drives dataset sampling and the engine pipeline.
	Seed int64 `json:"seed,omitempty"`
	// Budget, Price, and MaxIterations override engine defaults when > 0.
	Budget        float64 `json:"budget,omitempty"`
	Price         float64 `json:"price,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	// TB overrides the blocking trigger threshold t_B when > 0 (scaled-down
	// runs lower it so blocking still engages on small tables).
	TB int `json:"tb,omitempty"`
	// Shards is the blocking shard count (blocker.Config.Shards semantics:
	// 0 = choose by table size, n >= 1 = that many, capped at 64);
	// ShardWorkers bounds the shard coordinator's fan-out width. The
	// umbrella set is bit-identical at every setting.
	Shards       int `json:"shards,omitempty"`
	ShardWorkers int `json:"shard_workers,omitempty"`
}

// validate refuses a Meta with a number out of range: an ErrorRate outside
// [0, 1] — above 1 the simulated crowd would flip every answer — or any
// other negative number, which would run as its default without a word.
// Seed is exempt: every int64 is a seed. The comparisons are written so
// that NaN fails them too.
func (m Meta) validate() error {
	if !(m.ErrorRate >= 0 && m.ErrorRate <= 1) {
		return fmt.Errorf("runsvc: error_rate %v is outside [0, 1]", m.ErrorRate)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"scale", m.Scale}, {"noise", m.Noise}, {"budget", m.Budget}, {"price", m.Price},
		{"max_iterations", float64(m.MaxIterations)}, {"tb", float64(m.TB)},
		{"shards", float64(m.Shards)}, {"shard_workers", float64(m.ShardWorkers)},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("runsvc: %s %v is negative", f.name, f.v)
		}
	}
	return nil
}

// BuildSpec reconstructs a full Spec from its serializable description,
// once validate accepts it. The dataset resolves through
// datagen.DatasetFor, so a Meta names its data exactly.
func BuildSpec(meta Meta) (Spec, error) {
	if err := meta.validate(); err != nil {
		return Spec{}, err
	}
	ds, err := datagen.DatasetFor(meta.Profile, meta.Scale, meta.Noise)
	if err != nil {
		return Spec{}, fmt.Errorf("runsvc: %w", err)
	}

	var c crowd.Crowd
	if meta.ErrorRate > 0 {
		c = crowd.NewSimulated(ds.Truth, meta.ErrorRate, meta.Seed*31+7)
	} else {
		c = &crowd.Oracle{Truth: ds.Truth}
	}

	cfg := engine.Defaults()
	if meta.Seed != 0 {
		cfg.Seed = meta.Seed
	}
	if meta.Budget > 0 {
		cfg.Budget = meta.Budget
	}
	if meta.Price > 0 {
		cfg.PricePerQuestion = meta.Price
	}
	if meta.MaxIterations > 0 {
		cfg.MaxIterations = meta.MaxIterations
	}
	if meta.TB > 0 {
		cfg.Blocker.TB = meta.TB
	}
	cfg.Blocker.Shards = meta.Shards
	cfg.Blocker.ShardWorkers = meta.ShardWorkers
	m := meta
	return Spec{
		Name:    strings.ToLower(meta.Profile),
		Dataset: ds,
		Crowd:   c,
		Config:  cfg,
		Meta:    &m,
	}, nil
}

// normalize fills a Spec's Dataset/Crowd from Meta when absent and
// validates it is runnable: a Meta out of range is refused whether or not
// it is built from (BuildSpec validates what it builds).
func (s *Spec) normalize() error {
	switch {
	case s.Dataset != nil && s.Crowd != nil:
		if s.Meta != nil {
			if err := s.Meta.validate(); err != nil {
				return err
			}
		}
	case s.Meta == nil:
		return fmt.Errorf("runsvc: spec has neither dataset+crowd nor meta")
	default:
		built, err := BuildSpec(*s.Meta)
		if err != nil {
			return err
		}
		if s.Name == "" {
			s.Name = built.Name
		}
		s.Dataset, s.Crowd, s.Config = built.Dataset, built.Crowd, built.Config
	}
	if s.Name == "" {
		s.Name = s.Dataset.Name
		if s.Name == "" {
			s.Name = "job"
		}
	}
	s.Name = sanitizeName(s.Name)
	if s.Config.Runner != nil || s.Config.Cancel != nil || s.Config.Checkpoint != nil {
		return fmt.Errorf("runsvc: spec config must leave Runner, Cancel, and Checkpoint nil")
	}
	return nil
}

// sanitizeName keeps job names filesystem- and URL-safe: lowercase
// alphanumerics and dashes.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ', r == '_', r == '.':
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "job"
	}
	return b.String()
}
