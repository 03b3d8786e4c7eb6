package shard

import (
	"github.com/corleone-em/corleone/internal/similarity"
	"github.com/corleone-em/corleone/internal/simindex"
)

// Index is one shard's inverted similarity index: a simindex over the
// shard's slice of the table, plus the ascending local→global row map. It
// is read-only after Build and safe for concurrent probes.
type Index struct {
	// rows[local] is the global row id of the shard's local row; ascending,
	// so local-ascending candidate lists map to global-ascending ones.
	rows []int32
	ix   *simindex.Index
}

// BuildIndex indexes the given global rows of the profile column. rows
// must be ascending (Partition produces such lists).
func BuildIndex(kind simindex.Kind, profs []*similarity.Profile, rows []int32) *Index {
	local := make([]*similarity.Profile, len(rows))
	for i, r := range rows {
		local[i] = profs[r]
	}
	return &Index{rows: rows, ix: simindex.Build(kind, local)}
}

// Rows returns the number of rows the shard covers.
func (x *Index) Rows() int { return len(x.rows) }

// Footprint estimates the shard index's resident bytes (see
// simindex.Footprint) plus its row map.
func (x *Index) Footprint() int64 {
	return x.ix.Footprint() + int64(len(x.rows))*4
}

// Candidates appends to dst the ascending GLOBAL row ids of the shard's
// rows whose similarity to probe could exceed theta — the shard-local
// slice of the whole table's candidate superset. The simindex scratch is
// reusable across shards of any size.
func (x *Index) Candidates(probe *similarity.Profile, theta float64, s *simindex.Scratch, dst []int32) []int32 {
	for _, lr := range x.ix.Candidates(probe, theta, s) {
		dst = append(dst, x.rows[lr])
	}
	return dst
}

// Group is the full K-shard partition of one indexed table column. Shards
// are built independently — on K machines, each holding only its own
// postings, peak memory per process is the per-shard footprint, not the
// whole table's.
type Group struct {
	kind   simindex.Kind
	shards []*Index
}

// BuildGroup partitions the profile column into k shard indexes.
func BuildGroup(kind simindex.Kind, profs []*similarity.Profile, k int) *Group {
	parts := Partition(len(profs), k)
	g := &Group{kind: kind, shards: make([]*Index, k)}
	for s, rows := range parts {
		g.shards[s] = BuildIndex(kind, profs, rows)
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
