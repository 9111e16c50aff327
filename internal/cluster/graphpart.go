package cluster

import (
	"math"
	"sort"

	"cocg/internal/parallel"
	"cocg/internal/resources"
)

// GraphPartition is the clustering baseline the paper compares K-means
// against in Section V-D1: a similarity-graph method that does not require
// the number of clusters up front. Points become vertices, edges connect
// points closer than an automatically chosen threshold, and connected
// components become clusters.
//
// The paper reports that K-means "demonstrated significantly higher accuracy"
// than this method; the ablation benchmark reproduces that comparison.
//
// Both graph passes — the nearest-neighbour distances behind the threshold
// and the edge test — sweep the points in order of their coordinate on the
// widest-spread dimension and visit only pairs whose gap on that axis could
// still pass the test. The pruning is conservative and every edge is
// confirmed with the exact Dist comparison, so the result equals that of
// testing all n² pairs; graphpart_test.go keeps the all-pairs version as the
// oracle.
func GraphPartition(points []resources.Vector) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	n := len(points)
	axis, order := sweepOrder(points)
	sorted := make([]resources.Vector, n)
	for a, i := range order {
		sorted[a] = points[i]
	}
	threshold := autoThreshold(sorted, axis)

	// Union-find over the epsilon graph.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	// An edge needs Dist <= threshold, which implies both its axis gap and
	// its Dist2 are at most bound (bound²). The slack covers the rounding of
	// the gap, of Dist2 and of sqrt; the exact test decides every survivor.
	// Component membership does not depend on the order of the unions.
	bound := threshold*(1+1e-9) + 1e-9
	bound2 := bound * bound
	for a, p := range sorted {
		for b := a + 1; b < n; b++ {
			q := sorted[b]
			if q[axis]-p[axis] > bound {
				break
			}
			if p.Dist2(q) <= bound2 && p.Dist(q) <= threshold {
				union(order[a], order[b])
			}
		}
	}

	// Collapse components into dense cluster IDs, numbered by the first
	// point index of each component.
	ids := map[int]int{}
	assign := make([]int, n)
	for i := range points {
		root := find(i)
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		assign[i] = id
	}
	k := len(ids)
	sums := make([]resources.Vector, k)
	counts := make([]int, k)
	for i, p := range points {
		sums[assign[i]] = sums[assign[i]].Add(p)
		counts[assign[i]]++
	}
	centroids := make([]resources.Vector, k)
	for c := range centroids {
		centroids[c] = sums[c].Scale(1 / float64(counts[c]))
	}
	res := &Result{Centroids: centroids, Assign: assign, Iterations: 1}
	res.SSE = sseInto(points, centroids, assign, 1, make([]float64, parallel.NumChunks(len(points))))
	sortCentroids(res)
	return res, nil
}

// sweepOrder picks the dimension with the widest coordinate range and
// returns it with the point indices sorted by that coordinate, ties broken
// by index so the order is total. Moving away from a point along this order,
// the axis gap to it never shrinks, which is what lets both graph passes
// stop early.
func sweepOrder(points []resources.Vector) (resources.Dim, []int) {
	lo, hi := points[0], points[0]
	for _, p := range points[1:] {
		for d := range p {
			lo[d] = math.Min(lo[d], p[d])
			hi[d] = math.Max(hi[d], p[d])
		}
	}
	axis := resources.Dim(0)
	for d := range lo {
		if hi[d]-lo[d] > hi[axis]-lo[axis] {
			axis = resources.Dim(d)
		}
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		xa, xb := points[order[a]][axis], points[order[b]][axis]
		if xa != xb {
			return xa < xb
		}
		return order[a] < order[b]
	})
	return axis, order
}

// autoThreshold picks the epsilon for the similarity graph as the largest
// jump in the sorted nearest-neighbor distance distribution — the standard
// heuristic for threshold selection when K is unknown.
//
// Each point's nearest neighbour is found by scanning outward both ways in
// the sweep order and stopping on a side once the squared axis gap exceeds
// the best squared distance so far (a lower bound on every later Dist2 on
// that side). sqrt is monotone and correctly rounded and Dist is
// Sqrt(Dist2), so Sqrt of the minimum Dist2 is the minimum Dist.
func autoThreshold(sorted []resources.Vector, axis resources.Dim) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	nn := make([]float64, n)
	for a, p := range sorted {
		best2 := math.Inf(1)
		for _, q := range sorted[a+1:] {
			dx := q[axis] - p[axis]
			if dx*dx > best2*(1+1e-9) {
				break
			}
			if d2 := p.Dist2(q); d2 < best2 {
				best2 = d2
			}
		}
		for b := a - 1; b >= 0; b-- {
			q := sorted[b]
			dx := p[axis] - q[axis]
			if dx*dx > best2*(1+1e-9) {
				break
			}
			if d2 := p.Dist2(q); d2 < best2 {
				best2 = d2
			}
		}
		nn[a] = math.Sqrt(best2)
	}
	sort.Float64s(nn)
	// Use a multiple of the median nearest-neighbor distance so that points
	// within a dense cluster connect but separated clusters do not.
	med := nn[n/2]
	if med == 0 {
		// Degenerate: many duplicate points; fall back to the mean.
		var s float64
		for _, d := range nn {
			s += d
		}
		med = s / float64(n)
	}
	return 3 * med
}
