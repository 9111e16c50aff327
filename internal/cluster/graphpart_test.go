package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/parallel"
	"cocg/internal/resources"
)

// graphPartitionReference is the all-pairs GraphPartition the sweep version
// replaced, kept verbatim as the oracle: every shipped result must be
// reflect.DeepEqual to this one.
func graphPartitionReference(points []resources.Vector) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	n := len(points)
	threshold := autoThresholdReference(points)

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
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if points[i].Dist(points[j]) <= threshold {
				union(i, j)
			}
		}
	}

	// Collapse components into dense cluster IDs.
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

// autoThresholdReference is the all-pairs nearest-neighbour threshold of
// graphPartitionReference.
func autoThresholdReference(points []resources.Vector) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	nn := make([]float64, n)
	for i := range points {
		best := math.Inf(1)
		for j := range points {
			if i == j {
				continue
			}
			if d := points[i].Dist(points[j]); d < best {
				best = d
			}
		}
		nn[i] = best
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

// checkMatchesReference fails t unless GraphPartition and the all-pairs
// oracle return identical results on pts.
func checkMatchesReference(t *testing.T, pts []resources.Vector) {
	t.Helper()
	got, err := GraphPartition(pts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graphPartitionReference(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d: sweep result differs from all-pairs reference\n got K=%d SSE=%v\nwant K=%d SSE=%v",
			len(pts), got.K(), got.SSE, want.K(), want.SSE)
	}
}

// multiBlobCloud is a deterministic n-point 4-D cloud of Gaussian blobs with
// mixed centres and spreads, shaped like a game's frame corpus: a few tight
// stage clusters plus wider ones, clamped to the percent range.
func multiBlobCloud(seed int64, n int) []resources.Vector {
	r := rand.New(rand.NewSource(seed))
	const blobs = 8
	var centers [blobs]resources.Vector
	var spreads [blobs]float64
	for b := range centers {
		for d := range centers[b] {
			centers[b][d] = 5 + 90*r.Float64()
		}
		spreads[b] = 0.5 + 4*r.Float64()
	}
	out := make([]resources.Vector, 0, n)
	for len(out) < n {
		b := r.Intn(blobs)
		out = append(out, blob(r, centers[b], spreads[b], 1)...)
	}
	return out
}

// namedPoints is one synthetic workload of the differential test.
type namedPoints struct {
	name string
	pts  []resources.Vector
}

// referenceWorkloads are the synthetic point sets the sweep must reproduce
// exactly, each aimed at one way the pruning could go wrong.
func referenceWorkloads() []namedPoints {
	var w []namedPoints
	for _, seed := range []int64{1, 2, 3} {
		w = append(w, namedPoints{fmt.Sprintf("three-blobs/%d", seed), threeBlobs(seed)})
		w = append(w, namedPoints{fmt.Sprintf("multi-blob/%d", seed), multiBlobCloud(seed, 1500)})
	}

	// More than half the points duplicated: the median nearest-neighbour
	// distance is 0, which takes the mean fallback.
	r := rand.New(rand.NewSource(4))
	var dups []resources.Vector
	for i := 0; i < 5; i++ {
		p := resources.New(r.Float64()*100, r.Float64()*100, r.Float64()*100, r.Float64()*100)
		for c := 0; c < 80; c++ {
			dups = append(dups, p)
		}
	}
	dups = append(dups, multiBlobCloud(5, 200)...)
	r.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
	w = append(w, namedPoints{"duplicates", dups})

	same := make([]resources.Vector, 60)
	for i := range same {
		same[i] = resources.New(12.5, 40, 3, 77)
	}
	w = append(w, namedPoints{"all-identical", same})

	// The widest dimension takes only three values, so the sweep axis is
	// almost all ties.
	var ties []resources.Vector
	for i := 0; i < 600; i++ {
		ties = append(ties, resources.New(float64(50*r.Intn(3)), 10*r.Float64(), 10*r.Float64(), 10*r.Float64()))
	}
	w = append(w, namedPoints{"axis-ties", ties})

	// Runs of unit spacing joined by gaps of exactly 3 (= the threshold:
	// joined) and 4 (apart), on the line and on a 4-D integer lattice. The
	// scaled copies move those exact ties into inexact arithmetic.
	var line []resources.Vector
	x := 0.0
	for run := 0; run < 12; run++ {
		for k := 0; k < 5; k++ {
			line = append(line, resources.New(x, 0, 0, 0))
			x++
		}
		x += float64(2 + run%2)
	}
	var lattice []resources.Vector
	for i := 0; i < 700; i++ {
		lattice = append(lattice, resources.New(
			float64(r.Intn(9)), float64(r.Intn(9)), float64(r.Intn(9)), float64(r.Intn(9))))
	}
	for _, scale := range []float64{1, 0.1, 3, 1.0 / 3} {
		w = append(w, namedPoints{fmt.Sprintf("line-gaps/x%g", scale), scaled(line, scale)})
		w = append(w, namedPoints{fmt.Sprintf("lattice/x%g", scale), scaled(lattice, scale)})
	}

	p, q, s := resources.New(1, 2, 3, 4), resources.New(4, 6, 3, 4), resources.New(30, 2, 3, 4)
	w = append(w, namedPoints{"n1", []resources.Vector{p}})
	w = append(w, namedPoints{"n2", []resources.Vector{p, q}})
	w = append(w, namedPoints{"n2-dup", []resources.Vector{p, p}})
	w = append(w, namedPoints{"n3", []resources.Vector{p, q, s}})
	w = append(w, namedPoints{"n3-dup", []resources.Vector{s, p, p}})
	return w
}

func scaled(pts []resources.Vector, k float64) []resources.Vector {
	out := make([]resources.Vector, len(pts))
	for i, p := range pts {
		out[i] = p.Scale(k)
	}
	return out
}

func TestGraphPartitionMatchesReference(t *testing.T) {
	for _, w := range referenceWorkloads() {
		t.Run(w.name, func(t *testing.T) { checkMatchesReference(t, w.pts) })
	}
}

// TestGraphPartitionMatchesReferenceOnCorpora compares against the oracle on
// the frame corpora the paper run clusters: each game's profiling corpus as
// core.Train records it for the driver's --seed 1 (smaller, fast-mode
// corpora under -short).
func TestGraphPartitionMatchesReferenceOnCorpora(t *testing.T) {
	cfg := gamesim.CorpusConfig{Players: 12, SessionsPerPlayer: 4, Seed: 1 + 31}
	if testing.Short() {
		cfg.Players, cfg.SessionsPerPlayer = 6, 2
	}
	for _, spec := range gamesim.AllGames() {
		t.Run(spec.Name, func(t *testing.T) {
			corpus, err := gamesim.RecordPlayerCorpus(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var frames []resources.Vector
			for _, tr := range corpus {
				frames = append(frames, tr.FrameVectors()...)
			}
			checkMatchesReference(t, frames)
		})
	}
}

// FuzzGraphPartitionMatchesReference decodes the input into a small point
// set — 16-bit integer coordinates times a scale picked by the first byte,
// which makes exact ties and threshold-length pairs common — and asserts
// the sweep result equals the all-pairs oracle.
func FuzzGraphPartitionMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 1, 0, 2, 0, 3, 0, 4, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 255, 255, 0, 0, 128, 0, 7, 7, 0, 1, 0, 2, 0, 3, 0, 4, 200, 100, 50, 25, 12, 6, 3, 1})
	seed := []byte{4}
	for _, p := range multiBlobCloud(9, 40) {
		for _, v := range p {
			seed = binary.LittleEndian.AppendUint16(seed, uint16(v*100))
		}
	}
	f.Add(seed)
	scales := []float64{1, 0.1, 1.0 / 3, 1e-3, 1e6}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+8 {
			return
		}
		scale := scales[int(data[0])%len(scales)]
		data = data[1:]
		var pts []resources.Vector
		for len(data) >= 8 && len(pts) < 400 {
			var p resources.Vector
			for d := range p {
				p[d] = float64(int16(binary.LittleEndian.Uint16(data[2*d:]))) * scale
			}
			pts = append(pts, p)
			data = data[8:]
		}
		checkMatchesReference(t, pts)
	})
}

func BenchmarkGraphPartition(b *testing.B) {
	pts := multiBlobCloud(1, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GraphPartition(pts); err != nil {
			b.Fatal(err)
		}
	}
}
