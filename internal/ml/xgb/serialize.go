package xgb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"mvg/internal/ml"
)

// Serialization uses encoding/gob over an exported snapshot of the fitted
// ensemble so trained models can be stored and reloaded without
// retraining (model persistence is table stakes for a production
// pipeline; the facade's Model.Save/Load builds on this).

type nodeSnapshot struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Weight    float64
}

type modelSnapshot struct {
	Params  Params
	Classes int
	Trees   [][][]nodeSnapshot
	Gain    []float64
}

// MarshalBinary encodes a fitted model.
func (m *Model) MarshalBinary() ([]byte, error) {
	if m.trees == nil {
		return nil, ml.ErrNotFitted
	}
	snap := modelSnapshot{
		Params:  m.P,
		Classes: m.classes,
		Gain:    m.gain,
	}
	snap.Trees = make([][][]nodeSnapshot, len(m.trees))
	for r, round := range m.trees {
		snap.Trees[r] = make([][]nodeSnapshot, len(round))
		for c, tree := range round {
			nodes := make([]nodeSnapshot, len(tree.nodes))
			for i, n := range tree.nodes {
				nodes[i] = nodeSnapshot{n.feature, n.threshold, n.left, n.right, n.weight}
			}
			snap.Trees[r][c] = nodes
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("xgb: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// ErrMalformed is wrapped by every error UnmarshalBinary returns: the
// bytes do not decode, or they decode to an ensemble prediction could not
// walk safely.
var ErrMalformed = errors.New("xgb: malformed model")

// UnmarshalBinary restores a model encoded by MarshalBinary. Model files
// arrive from outside the program, so it rejects any ensemble whose
// prediction could fail: a tree with no nodes, a split whose children do
// not both lie after it and inside its tree (Fit appends a node before its
// subtrees, so every fitted model passes, and no walk can cycle), or a
// split on a feature outside the model's width, len(Gain).
func (m *Model) UnmarshalBinary(data []byte) error {
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("%w: decode: %w", ErrMalformed, err)
	}
	if snap.Classes < 2 || len(snap.Trees) == 0 {
		return fmt.Errorf("%w: %d classes, %d rounds", ErrMalformed, snap.Classes, len(snap.Trees))
	}
	trees := make([][]regTree, len(snap.Trees))
	for r, round := range snap.Trees {
		if len(round) != snap.Classes {
			return fmt.Errorf("%w: round %d has %d trees, want %d", ErrMalformed, r, len(round), snap.Classes)
		}
		trees[r] = make([]regTree, len(round))
		for c, nodes := range round {
			if len(nodes) == 0 {
				return fmt.Errorf("%w: tree (%d,%d) has no nodes", ErrMalformed, r, c)
			}
			tree := make([]regNode, len(nodes))
			for i, n := range nodes {
				if n.Feature >= 0 {
					if int(n.Feature) >= len(snap.Gain) {
						return fmt.Errorf("%w: node %d of tree (%d,%d) splits on feature %d of %d",
							ErrMalformed, i, r, c, n.Feature, len(snap.Gain))
					}
					if !childOf(i, n.Left, len(nodes)) || !childOf(i, n.Right, len(nodes)) {
						return fmt.Errorf("%w: node %d of tree (%d,%d) has invalid children", ErrMalformed, i, r, c)
					}
				}
				tree[i] = regNode{n.Feature, n.Threshold, n.Left, n.Right, n.Weight}
			}
			trees[r][c] = regTree{nodes: tree}
		}
	}
	m.P = snap.Params
	m.classes = snap.Classes
	m.gain = snap.Gain
	m.trees = trees
	return nil
}

// childOf reports whether child is a valid child index for node i of a
// tree of size n: strictly after i and inside the tree.
func childOf(i int, child int32, n int) bool {
	return int(child) > i && int(child) < n
}
