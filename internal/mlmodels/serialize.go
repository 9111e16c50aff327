package mlmodels

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// Tree serialization: each tree's arena run maps node for node to a JSON
// node list — the arena is already preorder with tree-relative child
// offsets, so node i of a tree is nodeDTO i. The three model types
// round-trip through JSON this way. A fitted model saved once serves every
// future session — the paper's "contention feature profiling and model
// training only need to be performed once".

// nodeDTO is one serialized tree node; children reference indices in the
// tree's node list, -1 meaning none. Threshold is set on split nodes only
// and Value on leaves only — the two roles flatNode.param carries.
type nodeDTO struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
	Label     int     `json:"c,omitempty"`
	Value     float64 `json:"v,omitempty"`
}

// treeDTO serializes one tree.
type treeDTO struct {
	Nodes []nodeDTO `json:"nodes"`
}

// maxClasses bounds the class count a loaded model may declare. The trainer
// packs labels into 16 bits (treeScratch.wlab), so no fitted model exceeds
// it, and it caps the vote buffer a loaded forest's Predict allocates.
const maxClasses = 1 << 16

// encodeTrees maps consecutive arena runs to their JSON form: tree i spans
// arena[starts[i]:starts[i+1]], the last one running to the arena's end.
func encodeTrees(arena []flatNode, starts []int32) []treeDTO {
	out := make([]treeDTO, len(starts))
	for i, s := range starts {
		end := len(arena)
		if i+1 < len(starts) {
			end = int(starts[i+1])
		}
		nodes := make([]nodeDTO, end-int(s))
		for j, n := range arena[s:end] {
			d := nodeDTO{Feature: int(n.feature), Left: int(n.left), Right: int(n.right), Label: int(n.label)}
			if n.feature >= 0 {
				d.Threshold = n.param
			} else {
				d.Value = n.param
			}
			nodes[j] = d
		}
		out[i] = treeDTO{Nodes: nodes}
	}
	return out
}

// decodeTrees validates serialized trees and lays them end to end in one
// arena, returning each tree's start offset. It is the single gate between
// outside input and the prediction walk, so it rejects every tree that walk
// could not finish safely: a leaf (feature -1) has no children and a label
// in [0, nclass); a split node's feature is in [0, nfeat) and both children
// point strictly forward inside the tree, which rules out cycles.
func decodeTrees(trees []treeDTO, nfeat, nclass int) ([]flatNode, []int32, error) {
	if nfeat < 0 || nfeat > math.MaxInt32 {
		return nil, nil, fmt.Errorf("mlmodels: n_feat %d out of range", nfeat)
	}
	if nclass < 1 || nclass > maxClasses {
		return nil, nil, fmt.Errorf("mlmodels: n_class %d outside [1, %d]", nclass, maxClasses)
	}
	var arena []flatNode
	starts := make([]int32, len(trees))
	for t, td := range trees {
		nodes := td.Nodes
		if len(nodes) == 0 {
			return nil, nil, fmt.Errorf("mlmodels: empty tree")
		}
		starts[t] = int32(len(arena))
		for i, d := range nodes {
			n := flatNode{feature: int32(d.Feature), left: int32(d.Left), right: int32(d.Right), label: int32(d.Label)}
			switch {
			case d.Feature == -1:
				if d.Left != -1 || d.Right != -1 {
					return nil, nil, fmt.Errorf("mlmodels: tree %d leaf %d has children", t, i)
				}
				if d.Label < 0 || d.Label >= nclass {
					return nil, nil, fmt.Errorf("mlmodels: tree %d leaf %d label %d outside [0, %d)", t, i, d.Label, nclass)
				}
				n.param = d.Value
			case d.Feature < 0 || d.Feature >= nfeat:
				return nil, nil, fmt.Errorf("mlmodels: tree %d node %d splits on feature %d outside [0, %d)", t, i, d.Feature, nfeat)
			case d.Left <= i || d.Left >= len(nodes) || d.Right <= i || d.Right >= len(nodes):
				return nil, nil, fmt.Errorf("mlmodels: tree %d split node %d children (%d, %d) not after it in %d nodes", t, i, d.Left, d.Right, len(nodes))
			default:
				n.param = d.Threshold
			}
			arena = append(arena, n)
		}
	}
	return arena, starts, nil
}

// dtcDTO serializes a DecisionTree.
type dtcDTO struct {
	Tree  treeDTO `json:"tree"`
	NFeat int     `json:"n_feat"`
}

// MarshalJSON implements json.Marshaler.
func (t *DecisionTree) MarshalJSON() ([]byte, error) {
	if !t.fitted {
		return nil, ErrNotFitted
	}
	return json.Marshal(dtcDTO{Tree: encodeTrees(t.flat, []int32{0})[0], NFeat: t.nfeat})
}

// UnmarshalJSON implements json.Unmarshaler. A DTC carries no class count,
// so its leaf labels are only bounded by maxClasses.
func (t *DecisionTree) UnmarshalJSON(b []byte) error {
	var d dtcDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	flat, _, err := decodeTrees([]treeDTO{d.Tree}, d.NFeat, maxClasses)
	if err != nil {
		return err
	}
	t.flat = flat
	t.nfeat = d.NFeat
	t.fitted = true
	return nil
}

// rfDTO serializes a RandomForest.
type rfDTO struct {
	Trees  []treeDTO `json:"trees"`
	NFeat  int       `json:"n_feat"`
	NClass int       `json:"n_class"`
}

// MarshalJSON implements json.Marshaler.
func (f *RandomForest) MarshalJSON() ([]byte, error) {
	if !f.fitted {
		return nil, ErrNotFitted
	}
	return json.Marshal(rfDTO{Trees: encodeTrees(f.flat, f.roots), NFeat: f.nfeat, NClass: f.nclass})
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *RandomForest) UnmarshalJSON(b []byte) error {
	var d rfDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	if len(d.Trees) == 0 {
		return fmt.Errorf("mlmodels: forest without trees")
	}
	flat, roots, err := decodeTrees(d.Trees, d.NFeat, d.NClass)
	if err != nil {
		return err
	}
	f.flat, f.roots = flat, roots
	f.nfeat = d.NFeat
	f.nclass = d.NClass
	f.fitted = true
	return nil
}

// gbdtDTO serializes a GBDT.
type gbdtDTO struct {
	Rounds       [][]treeDTO `json:"rounds"`
	Prior        []float64   `json:"prior"`
	NFeat        int         `json:"n_feat"`
	NClass       int         `json:"n_class"`
	LearningRate float64     `json:"lr"`
}

// MarshalJSON implements json.Marshaler.
func (g *GBDT) MarshalJSON() ([]byte, error) {
	if !g.fitted {
		return nil, ErrNotFitted
	}
	d := gbdtDTO{
		Prior: g.prior, NFeat: g.nfeat, NClass: g.nclass,
		LearningRate: g.cfg.LearningRate,
	}
	trees := encodeTrees(g.flat, slices.Concat(g.roots...))
	for _, round := range g.roots {
		d.Rounds = append(d.Rounds, trees[:len(round)])
		trees = trees[len(round):]
	}
	return json.Marshal(d)
}

// UnmarshalJSON implements json.Unmarshaler. Every round holds one tree per
// class, and the class count must match the priors Predict sums into.
func (g *GBDT) UnmarshalJSON(b []byte) error {
	var d gbdtDTO
	if err := json.Unmarshal(b, &d); err != nil {
		return err
	}
	k := len(d.Prior)
	if k == 0 {
		return fmt.Errorf("mlmodels: gbdt without priors")
	}
	if d.NClass != k {
		return fmt.Errorf("mlmodels: gbdt n_class %d != priors %d", d.NClass, k)
	}
	var trees []treeDTO
	for _, round := range d.Rounds {
		if len(round) != k {
			return fmt.Errorf("mlmodels: gbdt round width %d != classes %d", len(round), k)
		}
		trees = append(trees, round...)
	}
	flat, starts, err := decodeTrees(trees, d.NFeat, maxClasses)
	if err != nil {
		return err
	}
	g.roots = nil
	for ; len(starts) > 0; starts = starts[k:] {
		g.roots = append(g.roots, starts[:k:k])
	}
	g.flat = flat
	g.prior = d.Prior
	g.nfeat = d.NFeat
	g.nclass = d.NClass
	g.cfg = GBDTConfig{LearningRate: d.LearningRate}.withDefaults()
	g.cfg.LearningRate = d.LearningRate
	g.fitted = true
	return nil
}

// SavedModel wraps any of the three classifiers with its algorithm tag for
// polymorphic persistence.
type SavedModel struct {
	Kind  string          `json:"kind"`
	Model json.RawMessage `json:"model"`
}

// SaveModel encodes a fitted classifier.
func SaveModel(c Classifier) (*SavedModel, error) {
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return &SavedModel{Kind: c.Name(), Model: raw}, nil
}

// LoadModel decodes a classifier by its algorithm tag.
func LoadModel(s *SavedModel) (Classifier, error) {
	var c Classifier
	switch s.Kind {
	case "DTC":
		c = &DecisionTree{}
	case "RF":
		c = &RandomForest{}
	case "GBDT":
		c = &GBDT{}
	default:
		return nil, fmt.Errorf("mlmodels: unknown model kind %q", s.Kind)
	}
	if err := json.Unmarshal(s.Model, c); err != nil {
		return nil, err
	}
	return c, nil
}
