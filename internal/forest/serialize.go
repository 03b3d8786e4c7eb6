package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/corleone-em/corleone/internal/tree"
)

// savedNode is the JSON form of a tree node, flattened pre-order.
type savedNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Label     bool    `json:"y,omitempty"`
	Pos       int     `json:"p,omitempty"`
	Neg       int     `json:"n,omitempty"`
	// Left and Right are indices into the node array; -1 for leaves.
	Left  int `json:"l"`
	Right int `json:"r"`
}

type savedTree struct {
	Nodes []savedNode `json:"nodes"`
}

type savedForest struct {
	// FeatureNames pins the feature order the model was trained with; Load
	// verifies it against the target extractor so a model is never applied
	// to a differently-shaped vector.
	FeatureNames []string `json:"feature_names"`
	// Config records the training hyperparameters so a reloaded forest
	// round-trips completely (older files without it load with a zero
	// config, as before).
	Config Config      `json:"config,omitempty"`
	Trees  []savedTree `json:"trees"`
}

// Save serializes the forest as JSON, recording featureNames so the model
// can later be applied to data featurized the same way (the paper's
// Example 3.1: a trained toy matcher keeps matching future toys).
//
// The wire format is unchanged from the pointer-tree era: nodes per tree
// in pre-order with tree-local child indices. The packed SoA layout stores
// each tree's span in exactly that order, so emission is a linear scan of
// the span with indices rebased by the span start, and the bytes written
// for a given forest are identical to what the old walker produced —
// runsvc journal snapshots replay across versions in both directions.
func (f *Forest) Save(w io.Writer, featureNames []string) error {
	out := savedForest{FeatureNames: featureNames, Config: f.cfg}
	for t := range f.roots {
		base := f.roots[t]
		end := int32(len(f.feature))
		if t+1 < len(f.roots) {
			end = f.roots[t+1]
		}
		st := savedTree{Nodes: make([]savedNode, 0, end-base)}
		for p := base; p < end; p++ {
			sn := savedNode{
				Feature: int(f.feature[p]),
				Pos:     int(f.pos[p]),
				Neg:     int(f.neg[p]),
				Left:    -1,
				Right:   -1,
			}
			if f.feature[p] < 0 {
				sn.Label = f.label[p]
			} else {
				sn.Threshold = f.threshold[p]
				sn.Left = int(f.left[p] - base)
				sn.Right = int(f.right[p] - base)
			}
			st.Nodes = append(st.Nodes, sn)
		}
		out.Trees = append(out.Trees, st)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load deserializes a forest saved with Save — by this version or any
// earlier one; the wire format has not changed. featureNames, when non-nil,
// must match the names recorded at save time — applying a model to a
// different featurization silently produces garbage, so it is an error.
func Load(r io.Reader, featureNames []string) (*Forest, error) {
	f, names, err := LoadNamed(r)
	if err != nil || featureNames == nil {
		return f, err
	}
	if len(featureNames) != len(names) {
		return nil, fmt.Errorf("forest: model has %d features, extractor %d",
			len(names), len(featureNames))
	}
	for i := range featureNames {
		if featureNames[i] != names[i] {
			return nil, fmt.Errorf("forest: feature %d is %q in the model but %q here",
				i, names[i], featureNames[i])
		}
	}
	return f, nil
}

// LoadNamed deserializes a forest saved with Save and returns the feature
// names recorded at save time, for a caller that has no extractor yet to
// hold the model to.
//
// Decoding goes through pointer nodes (the natural shape for validating
// arbitrary child indices) and then packs them into the SoA layout with
// fromTrees.
func LoadNamed(r io.Reader) (*Forest, []string, error) {
	var in savedForest
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("forest: load: %w", err)
	}
	if len(in.Trees) > math.MaxInt16 {
		// Scoring tallies a vector's positive votes in an int16.
		return nil, nil, fmt.Errorf("forest: model has %d trees, at most %d are supported", len(in.Trees), math.MaxInt16)
	}
	trees := make([]*tree.Tree, 0, len(in.Trees))
	for ti, st := range in.Trees {
		if len(st.Nodes) == 0 {
			return nil, nil, fmt.Errorf("forest: tree %d is empty", ti)
		}
		nodes := make([]*tree.Node, len(st.Nodes))
		for i, sn := range st.Nodes {
			// A model that names its features cannot test one beyond them:
			// scoring would index past the end of every vector.
			if n := len(in.FeatureNames); n > 0 && sn.Feature >= n {
				return nil, nil, fmt.Errorf("forest: tree %d node %d tests feature %d of %d", ti, i, sn.Feature, n)
			}
			nodes[i] = &tree.Node{
				Feature:   sn.Feature,
				Threshold: sn.Threshold,
				Label:     sn.Label,
				Pos:       sn.Pos,
				Neg:       sn.Neg,
			}
		}
		// A child index must point forward in the array — Save emits
		// pre-order, where children always follow their parent — and no
		// node may be the child of two. That rules out cycles and shared
		// subtrees, which the flattener below would otherwise chase forever
		// or duplicate (exponentially, for a chain of shared children).
		isChild := make([]bool, len(nodes))
		for i, sn := range st.Nodes {
			if sn.Feature < 0 {
				continue // leaf
			}
			if sn.Left <= i || sn.Left >= len(nodes) ||
				sn.Right <= i || sn.Right >= len(nodes) ||
				sn.Left == sn.Right || isChild[sn.Left] || isChild[sn.Right] {
				return nil, nil, fmt.Errorf("forest: tree %d node %d has invalid children", ti, i)
			}
			isChild[sn.Left], isChild[sn.Right] = true, true
			nodes[i].Left = nodes[sn.Left]
			nodes[i].Right = nodes[sn.Right]
		}
		trees = append(trees, &tree.Tree{Root: nodes[0]})
	}
	return fromTrees(trees, in.Config), in.FeatureNames, nil
}
