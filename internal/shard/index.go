package shard

import (
	"fmt"

	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
)

// Probe is one term of a job's candidate union: the pairs whose similarity
// on Feature exceeds Theta. A blocking rule sim(f₁) ≤ θ₁ ∧ … ∧ sim(f_k) ≤
// θ_k → No keeps exactly the union of its k probes' pairs, so the list of
// them is a complete candidate generator for any rule set the rule belongs
// to; a single-feature anchor is a list of one.
type Probe struct {
	Feature int     `json:"feature"`
	Theta   float64 `json:"theta"`
}

// oneProbe is the list a lone (feature, theta) pair stands for — the form
// JobParams and JobSpec carried before probe lists, and still accept.
func oneProbe(probes []Probe, feature int, theta float64) []Probe {
	if len(probes) > 0 {
		return probes
	}
	return []Probe{{Feature: feature, Theta: theta}}
}

// probeKinds resolves each probe's feature to its index kind, rejecting a
// feature out of the extractor's range, one no index accelerates, and a
// negative threshold (below 0 a probe keeps every pair with a present value,
// which no index enumerates).
func probeKinds(ex *feature.Extractor, probes []Probe) ([]simindex.Kind, error) {
	if len(probes) == 0 {
		return nil, fmt.Errorf("empty probe list")
	}
	kinds := make([]simindex.Kind, len(probes))
	for i, p := range probes {
		if p.Feature < 0 || p.Feature >= ex.NumFeatures() {
			return nil, fmt.Errorf("feature %d out of range [0,%d)", p.Feature, ex.NumFeatures())
		}
		kind, ok := simindex.KindOf(ex.Features()[p.Feature].Kind)
		if !ok {
			return nil, fmt.Errorf("feature %d (%s) is not indexable", p.Feature, ex.Name(p.Feature))
		}
		if !(p.Theta >= 0) {
			return nil, fmt.Errorf("feature %d (%s): threshold %g is not >= 0", p.Feature, ex.Name(p.Feature), p.Theta)
		}
		kinds[i] = kind
	}
	return kinds, nil
}

// ProbeColumns returns the probes' table A and table B profile columns and
// their thresholds, in probe order — what BuildUnionGroup and
// NewUnionExecutor take.
func ProbeColumns(ex *feature.Extractor, probes []Probe) (colsA, colsB [][]*similarity.Profile, thetas []float64) {
	for _, p := range probes {
		a, b := ex.Profiles(p.Feature)
		colsA, colsB = append(colsA, a), append(colsB, b)
		thetas = append(thetas, p.Theta)
	}
	return colsA, colsB, thetas
}

// Index is one shard's similarity index: one simindex per probe over the
// shard's slice of the table, plus the ascending local→global row map. It
// is read-only after Build and safe for concurrent probes.
type Index struct {
	// rows[local] is the global row id of the shard's local row; ascending,
	// so local-ascending candidate lists map to global-ascending ones.
	rows []int32
	ixs  []*simindex.Index
}

// BuildIndex indexes the given global rows of each probe's profile column:
// cols[i] is the whole table's column for the probe of kind kinds[i]. rows
// must be ascending (Partition produces such lists).
func BuildIndex(kinds []simindex.Kind, cols [][]*similarity.Profile, rows []int32) *Index {
	x := &Index{rows: rows, ixs: make([]*simindex.Index, len(kinds))}
	local := make([]*similarity.Profile, len(rows))
	for i, kind := range kinds {
		for l, r := range rows {
			local[l] = cols[i][r]
		}
		x.ixs[i] = simindex.Build(kind, local)
	}
	return x
}

// Rows returns the number of rows the shard covers.
func (x *Index) Rows() int { return len(x.rows) }

// NewRun returns the shard's rows as a run of the extractor — what a prober
// verifies the shard's candidates against, Candidates' local ids being the
// run's positions. The caller keeps it: one per (extractor, shard).
func (x *Index) NewRun(ex *feature.Extractor) *feature.Run { return ex.NewRun(x.rows) }

// Footprint returns the shard index's resident bytes (see
// simindex.Footprint) plus its row map.
func (x *Index) Footprint() int64 {
	n := int64(len(x.rows)) * 4
	for _, ix := range x.ixs {
		n += ix.Footprint()
	}
	return n
}

// Candidates returns the ascending LOCAL ids — positions in the shard's row
// list — of the shard's rows that some probe keeps (probes[i] the probing
// row's profile for probe i, thetas[i] its threshold), aliasing the simindex
// scratch: the shard's slice of the table's candidate superset.
func (x *Index) Candidates(probes []*similarity.Profile, thetas []float64, s *simindex.Scratch) []int32 {
	return simindex.Union(x.ixs, probes, thetas, s)
}

// Group is the full K-shard partition of one indexed table. Shards are
// built independently — on K machines, each holding only its own postings,
// peak memory per process is the per-shard footprint, not the whole
// table's.
type Group struct {
	shards []*Index
}

// BuildGroup partitions one profile column into k shard indexes: the group
// of a single probe.
func BuildGroup(kind simindex.Kind, profs []*similarity.Profile, k int) *Group {
	return BuildUnionGroup([]simindex.Kind{kind}, [][]*similarity.Profile{profs}, k)
}

// BuildUnionGroup partitions the indexed table into k shards, each indexing
// every probe's column (cols[i], of kind kinds[i]) over its rows.
func BuildUnionGroup(kinds []simindex.Kind, cols [][]*similarity.Profile, k int) *Group {
	parts := Partition(len(cols[0]), k)
	g := &Group{shards: make([]*Index, k)}
	for s, rows := range parts {
		g.shards[s] = BuildIndex(kinds, cols, rows)
	}
	return g
}

// K returns the shard count.
func (g *Group) K() int { return len(g.shards) }

// Shard returns shard s.
func (g *Group) Shard(s int) *Index { return g.shards[s] }

// MaxShardFootprint returns the largest per-shard index footprint — the
// peak memory one shard worker needs for its postings.
func (g *Group) MaxShardFootprint() int64 {
	var max int64
	for _, sh := range g.shards {
		if f := sh.Footprint(); f > max {
			max = f
		}
	}
	return max
}
