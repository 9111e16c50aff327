package mlmodels

import "errors"

// Flat tree layout: every tree — the DTC, each RF member, each GBDT class
// tree — is one preorder run of []flatNode in its model's arena, grown there
// directly by Fit (fit.go) and mapped node for node to and from JSON
// (serialize.go). The online loop calls Predict once per stage boundary for
// every co-located session, so prediction is a production hot path: the
// arena packs nodes in preorder (a node's left child is always the next
// element) so a root-to-leaf walk mostly stays inside a few cache lines.
// Child offsets are relative to the tree's first node, so a tree's nodes are
// the same slice whether they sit alone, in a forest's shared arena, or in
// the JSON node list.

// ErrShortOutput is returned by PredictBatch when the out slice cannot hold
// one prediction per input row.
var ErrShortOutput = errors.New("mlmodels: output slice shorter than input batch")

// flatNode is one tree node in the arena. Children are int32 offsets from
// the tree's first node; feature == -1 marks a leaf carrying either a
// classification label or a regression value.
type flatNode struct {
	// param is the split threshold for interior nodes; for leaves it holds
	// the regression payload (GBDT member trees) instead — the two roles
	// never coexist. The pad field keeps the node at 32 bytes: exactly two
	// nodes per cache line, so no node ever straddles a line boundary
	// (a 24-byte packing measured slower for that reason).
	param   float64
	feature int32 // split feature; -1 for leaf
	left    int32 // tree offset; preorder layout makes this idx+1
	right   int32 // tree offset
	label   int32 // classification leaf payload
	_       int64 // pad to 32 bytes (see above)
}

// leafValue reads a leaf's regression payload; callers must only use it on
// nodes flatLeaf returned (feature < 0).
func (n *flatNode) leafValue() float64 { return n.param }

// scratchClasses bounds the per-call stack scratch (RF vote counts, GBDT
// score accumulators). Stage catalogs are small — typically under ten stage
// types — so the fixed buffers cover every real model; larger class counts
// fall back to an allocation.
const scratchClasses = 64

// flatLeaf walks the tree whose nodes start at arena offset root and
// returns the leaf x lands in; x[f] <= threshold goes left.
func flatLeaf(arena []flatNode, root int32, x []float64) *flatNode {
	n := &arena[root]
	for n.feature >= 0 {
		if x[n.feature] <= n.param {
			n = &arena[root+n.left]
		} else {
			n = &arena[root+n.right]
		}
	}
	return n
}

// treeDepth returns the depth of the tree whose nodes are tree (a single
// leaf has depth 1). Children always sit after their parent, so one
// backward pass sees both children's depths before the parent's.
func treeDepth(tree []flatNode) int {
	if len(tree) == 0 {
		return 0
	}
	d := make([]int32, len(tree))
	for i := len(tree) - 1; i >= 0; i-- {
		n := &tree[i]
		d[i] = 1
		if n.feature >= 0 {
			d[i] += max(d[n.left], d[n.right])
		}
	}
	return int(d[0])
}

// BatchPredictor is implemented by classifiers with a batch prediction path:
// out[i] receives the prediction for xs[i]. Implementations keep all scratch
// on the stack or in caller-provided buffers, so steady-state batch
// prediction does zero allocation. Results are identical to calling Predict
// per row.
type BatchPredictor interface {
	Classifier
	// PredictBatch predicts every row of xs into out, which must be at
	// least len(xs) long.
	PredictBatch(xs [][]float64, out []int) error
}

// checkBatch validates the common PredictBatch preconditions.
func checkBatch(fitted bool, xs [][]float64, out []int) error {
	if !fitted {
		return ErrNotFitted
	}
	if len(out) < len(xs) {
		return ErrShortOutput
	}
	return nil
}
