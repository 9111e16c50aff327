// Package profiler implements the frame-gained game profiler of Section
// IV-A: it clusters 5-second frames with K-means, segments traces into
// loading and execution stages using the loading cluster as the separator
// (Observation 2), and derives the game's stage-type catalog — each stage
// type being a combination of frame clusters (Fig. 4).
package profiler

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"cocg/internal/cluster"
	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// LoadingStageID is the catalog ID reserved for the loading stage type.
const LoadingStageID = 0

// ErrNoTraces is returned when a profile is built from no data.
var ErrNoTraces = errors.New("profiler: no traces")

// StageSig is one entry of a game's stage-type catalog.
type StageSig struct {
	ID int
	// ClusterSet is the sorted set of frame clusters composing this stage
	// type; its string form is the catalog key.
	ClusterSet []int
	// Mean and Peak summarize the demand of frames observed in this stage;
	// Peak is what the scheduler reserves when the stage is predicted.
	Mean resources.Vector
	Peak resources.Vector
	// MeanDurFrames is the average observed stage length in frames.
	MeanDurFrames float64
	// Count is how many stage occurrences back this signature.
	Count   int
	Loading bool
}

// Key returns the canonical string form of a cluster set.
func Key(set []int) string {
	var b strings.Builder
	for i, c := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// Detected is one stage occurrence found in a frame sequence.
type Detected struct {
	StageID int
	Start   int // inclusive frame index
	End     int // exclusive frame index
	Loading bool
	Mean    resources.Vector
	// Peak is the sustained (90th percentile per dimension) demand of the
	// occurrence. Using a percentile rather than the raw maximum keeps
	// transient spikes — which the rehearsal callback absorbs — from
	// inflating every future reservation of this stage type.
	Peak resources.Vector
}

// Frames returns the stage length in frames.
func (d Detected) Frames() int { return d.End - d.Start }

// Profile is the offline profiling result for one game: the fitted frame
// clusters plus the stage-type catalog. The paper performs this pass once
// per game (Section IV-D: stage structure is platform-independent).
type Profile struct {
	Game             string
	Clusters         *cluster.Result
	LoadingClusterID int
	Catalog          []StageSig

	sigIndex map[string]int
	minShare float64
}

// Config controls profile construction.
type Config struct {
	// K is the number of frame clusters. When <= 0 it is chosen by the
	// elbow criterion on an SSE sweep (Fig. 14).
	K int
	// MaxK bounds the elbow sweep; defaults to 8.
	MaxK int
	// MinClusterShare filters incidental clusters out of a stage signature:
	// a cluster must cover at least this fraction of the stage's frames to
	// be part of the signature. Defaults to 0.34 — genuine multi-cluster
	// stages split close to evenly between their clusters, while transient
	// bursts cover well under a third of a stage.
	MinClusterShare float64
	Seed            int64
	// Workers bounds the goroutines the clustering passes may use; <= 0
	// means GOMAXPROCS. Profiles do not depend on it.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 8
	}
	if c.MinClusterShare <= 0 {
		c.MinClusterShare = 0.34
	}
	return c
}

// Build constructs a game profile from offline traces.
func Build(traces []*gamesim.Trace, cfg Config) (*Profile, error) {
	if len(traces) == 0 {
		return nil, ErrNoTraces
	}
	c := cfg.withDefaults()
	var frames []resources.Vector
	for _, tr := range traces {
		frames = append(frames, tr.FrameVectors()...)
	}
	if len(frames) == 0 {
		return nil, ErrNoTraces
	}
	k := c.K
	if k <= 0 {
		curve, err := cluster.Sweep(frames, c.MaxK, c.Seed, c.Workers)
		if err != nil {
			return nil, err
		}
		k = cluster.Elbow(curve, 0.06)
	}
	res, err := cluster.KMeans(frames, cluster.Config{K: k, Seed: c.Seed, Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	p := &Profile{
		Game:             traces[0].Game,
		Clusters:         res,
		LoadingClusterID: loadingCluster(res),
		sigIndex:         map[string]int{},
		minShare:         c.MinClusterShare,
	}
	p.Catalog = append(p.Catalog, StageSig{
		ID:         LoadingStageID,
		ClusterSet: []int{p.LoadingClusterID},
		Loading:    true,
	})
	p.sigIndex["loading"] = LoadingStageID

	for _, tr := range traces {
		for _, d := range p.DetectStages(tr.FrameVectors()) {
			p.absorb(d, tr.FrameVectors(), c.MinClusterShare)
		}
	}
	p.prune()
	p.recomputeStats(traces)
	return p, nil
}

// recomputeStats rebuilds each catalog stage's Mean and sustained Peak from
// the frames pooled across every occurrence (after pruning has settled the
// final stage IDs). Pooling makes the sustained peak robust to occasional
// short, spike-dominated occurrences.
func (p *Profile) recomputeStats(traces []*gamesim.Trace) {
	pool := make([][]resources.Vector, len(p.Catalog))
	for _, tr := range traces {
		frames := tr.FrameVectors()
		for _, d := range p.DetectStages(frames) {
			if d.StageID < 0 || d.StageID >= len(pool) {
				continue
			}
			pool[d.StageID] = append(pool[d.StageID], frames[d.Start:d.End]...)
		}
	}
	for id := range p.Catalog {
		if len(pool[id]) == 0 {
			continue
		}
		p.Catalog[id].Mean = resources.Mean(pool[id])
		p.Catalog[id].Peak = sustainedPeak(pool[id])
	}
}

// prune merges rarely observed signatures (boundary and noise artifacts)
// into the established stage with the nearest mean demand. This keeps the
// catalog within the paper's empirical bound of ~2N stage types for N
// clusters (Section IV-A2).
func (p *Profile) prune() {
	totalExec := 0
	for _, s := range p.Catalog[1:] {
		totalExec += s.Count
	}
	if totalExec < 10 {
		return
	}
	const minCount = 2
	kept := []StageSig{p.Catalog[LoadingStageID]}
	var rare []StageSig
	for _, s := range p.Catalog[1:] {
		if s.Count >= minCount {
			kept = append(kept, s)
		} else {
			rare = append(rare, s)
		}
	}
	if len(kept) == 1 {
		// Every exec signature is rare; keep the most frequent one.
		best := p.Catalog[1]
		for _, s := range p.Catalog[2:] {
			if s.Count > best.Count {
				best = s
			}
		}
		kept = append(kept, best)
		var stillRare []StageSig
		for _, s := range rare {
			if s.ID != best.ID {
				stillRare = append(stillRare, s)
			}
		}
		rare = stillRare
	}
	// Reassign contiguous IDs and rebuild the index.
	oldToNew := map[int]int{LoadingStageID: LoadingStageID}
	newIndex := map[string]int{"loading": LoadingStageID}
	for i := range kept {
		oldToNew[kept[i].ID] = i
		kept[i].ID = i
		if !kept[i].Loading {
			newIndex[Key(kept[i].ClusterSet)] = i
		}
	}
	// Rare signatures alias to the nearest kept stage by mean demand, and
	// their statistics fold into it.
	for _, r := range rare {
		best, bestD := 1, r.Mean.Dist2(kept[1].Mean)
		for i := 2; i < len(kept); i++ {
			if d := r.Mean.Dist2(kept[i].Mean); d < bestD {
				best, bestD = i, d
			}
		}
		newIndex[Key(r.ClusterSet)] = best
		tgt := &kept[best]
		n, m := float64(tgt.Count), float64(r.Count)
		tgt.Mean = tgt.Mean.Scale(n / (n + m)).Add(r.Mean.Scale(m / (n + m)))
		tgt.Peak = tgt.Peak.Max(r.Peak)
		tgt.MeanDurFrames = (tgt.MeanDurFrames*n + r.MeanDurFrames*m) / (n + m)
		tgt.Count += r.Count
	}
	p.Catalog = kept
	p.sigIndex = newIndex
}

// sustainedPeak returns the per-dimension 90th percentile over a segment's
// frames.
func sustainedPeak(seg []resources.Vector) resources.Vector {
	var out resources.Vector
	if len(seg) == 0 {
		return out
	}
	vals := make([]float64, len(seg))
	for d := resources.Dim(0); d < resources.NumDims; d++ {
		for i, f := range seg {
			vals[i] = f[d]
		}
		sort.Float64s(vals)
		idx := (len(vals)*9 + 9) / 10 // ceil(0.9*n)
		if idx > 0 {
			idx--
		}
		out[d] = vals[idx]
	}
	return out
}

// loadingCluster identifies which fitted cluster is the loading one: the
// centroid with the lowest GPU utilization (loading screens do not render —
// Observation 3).
func loadingCluster(res *cluster.Result) int {
	best, bestGPU := 0, resources.Vector{}[0]
	bestGPU = res.Centroids[0][resources.GPU]
	for i, c := range res.Centroids[1:] {
		if c[resources.GPU] < bestGPU {
			best, bestGPU = i+1, c[resources.GPU]
		}
	}
	return best
}

// ClassifyFrame returns the fitted cluster ID nearest to the frame vector.
func (p *Profile) ClassifyFrame(v resources.Vector) int { return p.Clusters.Nearest(v) }

// IsLoadingFrame reports whether the frame classifies into the loading
// cluster — the paper's real-time stage separator.
func (p *Profile) IsLoadingFrame(v resources.Vector) bool {
	return p.ClassifyFrame(v) == p.LoadingClusterID
}

// DetectStages segments a frame sequence into alternating loading and
// execution stages, labeling each execution stage with its catalog ID (or -1
// for a signature never absorbed into the catalog).
func (p *Profile) DetectStages(frames []resources.Vector) []Detected {
	var out []Detected
	i := 0
	for i < len(frames) {
		loading := p.IsLoadingFrame(frames[i])
		j := i
		for j < len(frames) && p.IsLoadingFrame(frames[j]) == loading {
			j++
		}
		d := Detected{Start: i, End: j, Loading: loading}
		seg := frames[i:j]
		d.Mean = resources.Mean(seg)
		d.Peak = sustainedPeak(seg)
		if loading {
			d.StageID = LoadingStageID
		} else {
			set := p.signatureOf(seg, p.minShare)
			if id, ok := p.sigIndex[Key(set)]; ok {
				d.StageID = id
			} else {
				d.StageID = -1
			}
		}
		out = append(out, d)
		i = j
	}
	return mergeDips(out, frames, p)
}

// mergeDips removes single-frame "loading" segments between two execution
// segments: every game's real loading takes at least two detection frames
// (loading times are 10 s and up), so a lone loading-classified frame inside
// execution is a sub-frame dip (a menu pause, a black-screen cutscene
// moment) interrupting one ongoing stage. Merging keeps transient dips from
// minting spurious stage transitions in training data.
func mergeDips(segs []Detected, frames []resources.Vector, p *Profile) []Detected {
	changed := true
	for changed {
		changed = false
		for i := 1; i+1 < len(segs); i++ {
			mid := segs[i]
			if !mid.Loading || mid.Frames() > 1 {
				continue
			}
			l, r := segs[i-1], segs[i+1]
			if l.Loading || r.Loading {
				continue
			}
			merged := Detected{Start: l.Start, End: r.End}
			span := frames[merged.Start:merged.End]
			merged.Mean = resources.Mean(span)
			merged.Peak = sustainedPeak(span)
			set := p.signatureOf(span, p.minShare)
			if id, ok := p.sigIndex[Key(set)]; ok {
				merged.StageID = id
			} else {
				merged.StageID = -1
			}
			segs = append(segs[:i-1], append([]Detected{merged}, segs[i+2:]...)...)
			changed = true
			break
		}
	}
	return segs
}

// signatureOf computes the filtered cluster set of an execution segment.
func (p *Profile) signatureOf(frames []resources.Vector, minShare float64) []int {
	counts := map[int]int{}
	for _, f := range frames {
		counts[p.ClassifyFrame(f)]++
	}
	// A cluster joins the signature only with sustained presence; brief
	// appearances are spikes or misclassified boundary frames, which must
	// not mint artifact multi-cluster stage types.
	minCount := int(minShare * float64(len(frames)))
	if minCount < 1 {
		minCount = 1
	}
	var set []int
	for c, n := range counts {
		if c == p.LoadingClusterID {
			continue // stray loading-like frames inside a stage are noise
		}
		if n >= minCount {
			set = append(set, c)
		}
	}
	if len(set) == 0 {
		// Degenerate segment: keep its most frequent cluster, the lowest
		// id among equally frequent ones so map order cannot decide.
		best, bestN := -1, 0
		for c, n := range counts {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		set = append(set, best)
	}
	sort.Ints(set)
	return set
}

// absorb folds one detected stage occurrence into the catalog, creating a
// new signature when needed and updating running statistics.
func (p *Profile) absorb(d Detected, frames []resources.Vector, minShare float64) {
	if d.Loading {
		s := &p.Catalog[LoadingStageID]
		s.update(d)
		return
	}
	set := p.signatureOf(frames[d.Start:d.End], minShare)
	key := Key(set)
	id, ok := p.sigIndex[key]
	if !ok {
		id = len(p.Catalog)
		p.sigIndex[key] = id
		p.Catalog = append(p.Catalog, StageSig{ID: id, ClusterSet: set})
	}
	p.Catalog[id].update(d)
}

// update folds one occurrence into a signature's running statistics.
func (s *StageSig) update(d Detected) {
	n := float64(s.Count)
	s.Mean = s.Mean.Scale(n / (n + 1)).Add(d.Mean.Scale(1 / (n + 1)))
	s.Peak = s.Peak.Max(d.Peak)
	s.MeanDurFrames = (s.MeanDurFrames*n + float64(d.Frames())) / (n + 1)
	s.Count++
}

// NumStageTypes returns the catalog size including the loading stage — the
// quantity reported in Table I.
func (p *Profile) NumStageTypes() int { return len(p.Catalog) }

// Stage returns the catalog entry with the given ID.
func (p *Profile) Stage(id int) (StageSig, bool) {
	if id < 0 || id >= len(p.Catalog) {
		return StageSig{}, false
	}
	return p.Catalog[id], true
}

// StageByClusters returns the catalog ID for a cluster set, or false when
// the combination was never observed.
func (p *Profile) StageByClusters(set []int) (int, bool) {
	sorted := append([]int(nil), set...)
	sort.Ints(sorted)
	id, ok := p.sigIndex[Key(sorted)]
	return id, ok
}

// CandidateStages returns the catalog IDs of execution stages whose cluster
// set contains the given cluster, most-observed first. The online detector
// uses it to shortlist which stage a game just entered from its first frame.
func (p *Profile) CandidateStages(clusterID int) []int {
	var ids []int
	for _, s := range p.Catalog {
		if s.Loading {
			continue
		}
		for _, c := range s.ClusterSet {
			if c == clusterID {
				ids = append(ids, s.ID)
				break
			}
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return p.Catalog[ids[a]].Count > p.Catalog[ids[b]].Count
	})
	return ids
}

// PeakDemand returns the component-wise maximum demand over the whole
// catalog — the game's peak consumption M of Eq. 1.
func (p *Profile) PeakDemand() resources.Vector {
	var peak resources.Vector
	for _, s := range p.Catalog {
		peak = peak.Max(s.Peak)
	}
	return peak
}
