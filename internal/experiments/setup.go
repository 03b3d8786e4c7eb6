// Package experiments regenerates every table and figure of the paper's
// evaluation (§9) on the synthetic datasets with simulated crowds. Each
// experiment returns structured rows (so tests and benchmarks can assert
// on shape) plus a text rendering in the layout of the paper's tables.
package experiments

import (
	"github.com/corleone-em/corleone/internal/crowd"
	"github.com/corleone-em/corleone/internal/datagen"
	"github.com/corleone-em/corleone/internal/engine"
	"github.com/corleone-em/corleone/internal/record"
)

// Setup fixes one dataset's experimental configuration.
type Setup struct {
	// Profile is the generator profile (already scaled).
	Profile datagen.Profile
	// TB is the blocking threshold, scaled so that t_B / |A×B| matches the
	// paper's ratio (3M over the paper-scale Cartesian product).
	TB int
	// Price is the per-question payment (§9: $0.01, $0.02 for Products).
	Price float64
	// ErrorRate is the simulated crowd's per-answer error probability.
	ErrorRate float64
	// Seed drives the dataset, crowd, and run.
	Seed int64
}

// DefaultScale shrinks the two large datasets so a full pipeline run takes
// seconds instead of the paper's cluster-hours; Restaurants is already
// small and runs at paper scale.
const (
	DefaultScaleCitations = 0.10
	DefaultScaleProducts  = 0.12
	// DefaultErrorRate approximates a qualified AMT crowd (the paper's
	// sensitivity analysis brackets it with 0%, 10%, 20%).
	DefaultErrorRate = 0.05
)

// paperCartesian is the paper-scale |A×B| per dataset (Table 3).
var paperCartesian = map[string]float64{
	"Restaurants": 176.4e3,
	"Citations":   168.1e6,
	"Products":    56.4e6,
}

// tbFor scales the paper's t_B = 3M by the ratio of the scaled Cartesian
// product to the paper-scale one, so blocking triggers in exactly the same
// regimes. Because the Cartesian product scales quadratically while match
// counts scale linearly, a purely proportional t_B would leave the blocking
// sample S with almost no positives at small scales (the paper's S holds
// ~60); t_B is therefore floored so S is expected to hold at least ~25
// matches, capped at a fifth of the Cartesian product.
func tbFor(name string, cartesian int64, matches int) int {
	ratio := 3e6 / paperCartesian[name]
	tb := int(ratio * float64(cartesian))
	if int64(tb) >= cartesian {
		return tb // blocking never triggers; keep it that way
	}
	if matches > 0 {
		if floor := int(25 * float64(cartesian) / float64(matches)); tb < floor {
			tb = floor
		}
	}
	if cap5 := int(cartesian / 5); tb > cap5 {
		tb = cap5
	}
	if tb < 2000 {
		tb = 2000
	}
	return tb
}

// NewSetup builds a setup for the named dataset at the given scale.
func NewSetup(name string, scale, errorRate float64, seed int64) Setup {
	var base datagen.Profile
	var price float64
	switch name {
	case "Restaurants":
		base, price = datagen.RestaurantsPaper, 0.01
	case "Citations":
		base, price = datagen.CitationsPaper, 0.01
	case "Products":
		base, price = datagen.ProductsPaper, 0.02
	default:
		panic("experiments: unknown dataset " + name)
	}
	p := datagen.Scaled(base, scale)
	p.Seed = base.Seed + seed
	cart := int64(p.SizeA) * int64(p.SizeB)
	return Setup{
		Profile:   p,
		TB:        tbFor(name, cart, p.Matches),
		Price:     price,
		ErrorRate: errorRate,
		Seed:      seed,
	}
}

// Dataset generates the setup's dataset.
func (s Setup) Dataset() *record.Dataset { return datagen.Generate(s.Profile) }

// Crowd builds the setup's simulated crowd over the dataset's truth.
func (s Setup) Crowd(ds *record.Dataset) crowd.Crowd {
	if s.ErrorRate <= 0 {
		return &crowd.Oracle{Truth: ds.Truth}
	}
	return crowd.NewSimulated(ds.Truth, s.ErrorRate, s.Seed*31+7)
}

// EngineConfig builds the engine configuration for this setup.
func (s Setup) EngineConfig() engine.Config {
	cfg := engine.Defaults()
	cfg.Blocker.TB = s.TB
	cfg.PricePerQuestion = s.Price
	cfg.Seed = s.Seed
	return cfg
}

// Run executes the full pipeline for this setup.
func (s Setup) Run() (*record.Dataset, *engine.Result, error) {
	ds := s.Dataset()
	res, err := engine.Run(ds, s.Crowd(ds), s.EngineConfig())
	return ds, res, err
}
