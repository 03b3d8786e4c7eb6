package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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
// for a given forest are identical to what the old walker produced — a
// model file (runsvc's model_iterNN.json) written by either loads in the
// other.
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
func LoadNamed(r io.Reader) (*Forest, []string, error) {
	var in savedForest
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("forest: load: %w", err)
	}
	if len(in.Trees) > math.MaxInt16 {
		// Scoring tallies a vector's positive votes in an int16.
		return nil, nil, fmt.Errorf("forest: model has %d trees, at most %d are supported", len(in.Trees), math.MaxInt16)
	}
	parts := make([]soaTree, len(in.Trees))
	for ti, st := range in.Trees {
		if len(st.Nodes) == 0 {
			return nil, nil, fmt.Errorf("forest: tree %d is empty", ti)
		}
		isChild := make([]bool, len(st.Nodes))
		for i, sn := range st.Nodes {
			// The layout holds features and counts in int32s: a wider value
			// would wrap into another feature, or turn a split into a leaf.
			if !fitsInt32(sn.Feature) || !fitsInt32(sn.Pos) || !fitsInt32(sn.Neg) {
				return nil, nil, fmt.Errorf("forest: tree %d node %d has a field outside int32", ti, i)
			}
			// A model that names its features cannot test one beyond them:
			// scoring would index past the end of every vector.
			if n := len(in.FeatureNames); n > 0 && sn.Feature >= n {
				return nil, nil, fmt.Errorf("forest: tree %d node %d tests feature %d of %d", ti, i, sn.Feature, n)
			}
			if sn.Feature < 0 {
				continue // leaf
			}
			// A child index must point forward in the array — Save emits
			// pre-order, where children always follow their parent — and no
			// node may be the child of two. That rules out cycles and shared
			// subtrees, which packSaved would otherwise chase forever or
			// duplicate (exponentially, for a chain of shared children).
			if sn.Left <= i || sn.Left >= len(st.Nodes) ||
				sn.Right <= i || sn.Right >= len(st.Nodes) ||
				sn.Left == sn.Right || isChild[sn.Left] || isChild[sn.Right] {
				return nil, nil, fmt.Errorf("forest: tree %d node %d has invalid children", ti, i)
			}
			isChild[sn.Left], isChild[sn.Right] = true, true
		}
		parts[ti] = packSaved(st.Nodes)
	}
	return pack(in.Config, parts), in.FeatureNames, nil
}

func fitsInt32(v int) bool { return int(int32(v)) == v }

// packSaved lays a validated saved tree out in pre-order from node 0, the
// grower's emission order, so a saved forest loads back into the forest
// that was saved. A node no path from the root reaches is dropped.
func packSaved(nodes []savedNode) soaTree {
	var st soaTree
	var walk func(i int) int32
	walk = func(i int) int32 {
		sn := &nodes[i]
		id := st.emit()
		st.pos[id], st.neg[id] = int32(sn.Pos), int32(sn.Neg)
		if sn.Feature < 0 {
			st.feature[id] = -1
			st.label[id] = sn.Label
			return id
		}
		st.feature[id] = int32(sn.Feature)
		st.threshold[id] = sn.Threshold
		l := walk(sn.Left)
		r := walk(sn.Right)
		st.left[id], st.right[id] = l, r
		return id
	}
	walk(0)
	return st
}
