// Package corleone is a from-scratch Go implementation of Corleone, the
// hands-off crowdsourcing (HOC) system for entity matching from Gokhale et
// al., SIGMOD 2014. Given two tables, a short matching instruction, and
// four illustrating examples, it runs the entire EM workflow — blocking,
// active-learning based matching, accuracy estimation, and iterative
// refinement on difficult pairs — using only a crowd of ordinary workers,
// with no developer in the loop.
//
// The minimal use is:
//
//	ds, _ := corleone.LoadDatasetCSV("my-task", fileA, fileB, schema, instruction, seeds)
//	res, _ := corleone.Run(ds, myCrowd, corleone.DefaultConfig())
//	fmt.Println(res.Matches, res.EstimatedF1)
//
// A Crowd is anything that answers match questions — an Amazon Mechanical
// Turk bridge in production, or the included simulated crowds (Oracle,
// NewSimulatedCrowd) for experiments. The package also exposes the paper's
// three synthetic evaluation dataset generators.
package corleone

import (
	"fmt"
	"io"

	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/crowdjoin"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/feature"
	"github.com/corleone-em/corleone/internal/forest"
	"github.com/corleone-em/corleone/internal/metrics"
	"github.com/corleone-em/corleone/internal/record"
)

// Core data types, re-exported from the internal packages.
type (
	// Dataset bundles the two tables, the crowd instruction, the four
	// seed examples, and (for simulation) the ground truth.
	Dataset = record.Dataset
	// Table is a named relation with a typed schema.
	Table = record.Table
	// Schema is an ordered list of typed attributes.
	Schema = record.Schema
	// Attribute is one schema column.
	Attribute = record.Attribute
	// Tuple is one table row.
	Tuple = record.Tuple
	// Pair identifies a candidate match (row of A, row of B).
	Pair = record.Pair
	// Labeled couples a pair with a match label.
	Labeled = record.Labeled
	// GroundTruth is a gold standard used by simulated crowds and for
	// reporting true accuracy.
	GroundTruth = record.GroundTruth

	// Crowd answers match questions, one worker answer per call.
	Crowd = crowd.Crowd
	// Accounting is the crowd spend report.
	Accounting = crowd.Accounting

	// Config controls a full Corleone run.
	Config = engine.Config
	// Result is a completed run: matches, estimates, per-phase trace.
	Result = engine.Result
	// Phase is one row fragment of the per-iteration trace (Table 4).
	Phase = engine.Phase
	// PRF is a precision/recall/F1 triple in percent.
	PRF = metrics.PRF
)

// Attribute type constants for schema construction.
const (
	AttrString      = record.AttrString
	AttrText        = record.AttrText
	AttrNumeric     = record.AttrNumeric
	AttrCategorical = record.AttrCategorical
)

// DefaultConfig returns the paper's defaults for the parameters a run may
// vary: t_B = 3M, k = 20 blocking rules, 10-tree random forests, Pmin =
// 0.95, $0.01 per question. The ones the paper fixes — q = 20 labels per
// iteration, εmax = 0.05, δ = 0.95, hybrid voting and the rest — are
// constants of the internal packages, not Config fields; DESIGN.md §4
// lists each with its value.
func DefaultConfig() Config { return engine.Defaults() }

// Run executes the hands-off pipeline on the dataset with the given crowd.
func Run(ds *Dataset, c Crowd, cfg Config) (*Result, error) {
	return engine.Run(ds, c, cfg)
}

// NewGroundTruth builds a gold standard from true match pairs.
func NewGroundTruth(matches []Pair) *GroundTruth {
	return record.NewGroundTruth(matches)
}

// P constructs a Pair from row indices into tables A and B.
func P(a, b int) Pair { return record.P(a, b) }

// Oracle returns a perfect crowd backed by the gold standard.
func Oracle(truth *GroundTruth) Crowd { return &crowd.Oracle{Truth: truth} }

// NewSimulatedCrowd returns the paper's random-worker crowd model: every
// answer independently flips the true label with probability errorRate.
func NewSimulatedCrowd(truth *GroundTruth, errorRate float64, seed int64) Crowd {
	return crowd.NewSimulated(truth, errorRate, seed)
}

// LoadDatasetCSV reads tables A and B from CSV (header row first), using
// schema for attribute types, and assembles a Dataset. A nil schema is
// hands-off: attribute types are inferred from the data (numeric, text,
// code-like categorical, string). seeds must contain at least two positive
// and two negative examples (§3). The returned dataset has no ground
// truth; pair it with a real crowd.
func LoadDatasetCSV(name string, a, b io.Reader, schema Schema,
	instruction string, seeds []Labeled) (*Dataset, error) {

	ta, err := record.ReadCSV(name+"_a", a, schema)
	if err != nil {
		return nil, fmt.Errorf("table A: %w", err)
	}
	tb, err := record.ReadCSV(name+"_b", b, schema)
	if err != nil {
		return nil, fmt.Errorf("table B: %w", err)
	}
	if schema == nil {
		record.InferSchema(ta, tb)
	}
	ds := &Dataset{Name: name, A: ta, B: tb, Instruction: instruction, Seeds: seeds}
	// Seed pairs must be labelable even without ground truth; validation
	// needs a non-nil truth only for truth checks, which are skipped.
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Synthetic dataset generation (the paper's Table 1 datasets).

// DatasetProfile selects a generator configuration.
type DatasetProfile = datagen.Profile

// Paper-shape profiles (Table 1 sizes).
var (
	RestaurantsProfile = datagen.RestaurantsPaper
	CitationsProfile   = datagen.CitationsPaper
	ProductsProfile    = datagen.ProductsPaper
)

// ScaledProfile shrinks a profile by the given factor, preserving its
// shape (skew, noise, difficulty) at bench-friendly sizes.
func ScaledProfile(p DatasetProfile, scale float64) DatasetProfile {
	return datagen.Scaled(p, scale)
}

// GenerateDataset synthesizes a dataset from a profile.
func GenerateDataset(p DatasetProfile) *Dataset { return datagen.Generate(p) }

// EvaluateMatches scores predicted matches against a gold standard
// (precision/recall/F1 in percent). Recall counts every true match in A×B,
// so blocking losses are charged.
func EvaluateMatches(predicted []Pair, truth *GroundTruth) PRF {
	return metrics.Evaluate(predicted, truth)
}

// Crowdsourced joins (§10): Corleone as a relational operator.

// JoinOptions configures EntityJoin.
type JoinOptions = crowdjoin.Options

// JoinResult is a materialized crowdsourced join with accuracy estimates.
type JoinResult = crowdjoin.Result

// EntityJoin joins two same-schema tables on crowd-judged entity equality,
// running the full hands-off pipeline and materializing the joined rows —
// the hands-off crowdsourced join §10 proposes for crowdsourced RDBMSs.
func EntityJoin(a, b *Table, c Crowd, opts JoinOptions) (*JoinResult, error) {
	return crowdjoin.EntityJoin(a, b, c, opts)
}

// Event is a pipeline progress notification delivered to Config.Listener.
type Event = engine.Event

// Model is a trained matcher detached from its training run: a random
// forest plus the feature-name contract it expects. Models come from
// Result.SaveModel and LoadModel, and let one category's trained matcher
// score future data of the same schema without touching the crowd again
// (the reuse scenario of the paper's Example 3.1).
type Model struct {
	forest *forest.Forest
	names  []string
}

// LoadModel deserializes a model written by Result.SaveModel, with the
// feature names it was saved with as its contract.
func LoadModel(r io.Reader) (*Model, error) {
	f, names, err := forest.LoadNamed(r)
	if err != nil {
		return nil, err
	}
	return &Model{forest: f, names: names}, nil
}

// Match applies the model to every pair of the dataset and returns the
// predicted matches. The dataset's schema must featurize identically to
// the training schema (same attribute names and types); a mismatch is an
// error, not a silent misprediction. Match scores the full Cartesian
// product — run it on blocked or modest-sized inputs.
func (m *Model) Match(ds *Dataset) ([]Pair, error) {
	ex := feature.NewExtractor(ds)
	if len(m.names) != ex.NumFeatures() {
		return nil, fmt.Errorf("model expects %d features, dataset produces %d",
			len(m.names), ex.NumFeatures())
	}
	for i, n := range ex.Names() {
		if m.names[i] != n {
			return nil, fmt.Errorf("feature %d is %q in the model but %q in the dataset",
				i, m.names[i], n)
		}
	}
	var out []Pair
	for a := 0; a < ds.A.Len(); a++ {
		for b := 0; b < ds.B.Len(); b++ {
			p := P(a, b)
			if m.forest.Predict(ex.Vector(p)) {
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// DedupResult clusters a single table's duplicate rows.
type DedupResult = crowdjoin.DedupResult

// Dedup finds duplicate rows within one table — the self-join EM setting —
// by running the hands-off pipeline on (t, t) and clustering the matches
// transitively.
func Dedup(t *Table, c Crowd, opts JoinOptions) (*DedupResult, error) {
	return crowdjoin.Dedup(t, c, opts)
}
