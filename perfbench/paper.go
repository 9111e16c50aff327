package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cocg/internal/experiments"
)

// experiment is one named entry of the paper run.
type experiment struct {
	name string
	run  func(*experiments.Context) (fmt.Stringer, error)
}

func exp[T fmt.Stringer](name string, f func(*experiments.Context) (T, error)) experiment {
	return experiment{name, func(ctx *experiments.Context) (fmt.Stringer, error) { return f(ctx) }}
}

// paperExperiments lists all 20 experiments in cmd/cocg's presentation
// order.
var paperExperiments = []experiment{
	exp("table1", experiments.TableI),
	exp("fig2", experiments.Fig2),
	exp("fig5", experiments.Fig5),
	exp("fig6", experiments.Fig6),
	exp("fig9", experiments.Fig9),
	exp("fig10", experiments.Fig10),
	exp("fig11", experiments.Fig11),
	exp("fig12", experiments.Fig12),
	exp("fig13", experiments.Fig13),
	exp("fig14", experiments.Fig14),
	exp("fig15", experiments.Fig15),
	exp("pairs", experiments.PairMatrix),
	exp("scaleout", experiments.ScaleOut),
	exp("online", experiments.OnlineLearning),
	exp("ablation-category", experiments.CategoryAblation),
	exp("ablation-redundancy", experiments.RedundancyAblation),
	exp("ablation-steal", experiments.LoadingStealAblation),
	exp("ablation-interval", experiments.FrameIntervalAblation),
	exp("ablation-placement", experiments.PlacementAblation),
	exp("ablation-clustering", func(ctx *experiments.Context) (fmt.Stringer, error) {
		rows, err := experiments.GraphPartitionAblation(ctx)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		b.WriteString("Clustering method comparison (Section V-D1)\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %s\n", r)
		}
		return text(b.String()), nil
	}),
}

type text string

func (s text) String() string { return string(s) }

// paperDigestSeed is the --seed whose per-experiment digests are kept in
// testdata/paper_digests.json.
const paperDigestSeed = 1

// paperInputs and paperSeedStride shape the input seeds one paper run
// derives from --seed. The run's work grows with each seed's profiling
// corpus (GraphPartition is quadratic in its frames): one seed's pass takes
// from 7.2 to 12.6 CPU seconds on the same host, and a few seeds sit in that
// slow tail. Cycling the passes through four seeds and taking the median
// over them trims one slow seed from a run's result.
const (
	paperInputs     = 4
	paperSeedStride = 1_000_003
)

// paperDigests holds the reference digest of each experiment's rendered
// result for the input seeds of --seed paperDigestSeed, keyed
// "<input seed>/<experiment>". TestPaperDigests -update regenerates it
// after a change meant to alter the paper's results.
//
//go:embed testdata/paper_digests.json
var paperDigests []byte

// paperSeeds are the input seeds of one paper run.
func paperSeeds(seed int64) []int64 {
	out := make([]int64, paperInputs)
	for i := range out {
		out[i] = seed + int64(i)*paperSeedStride
	}
	return out
}

// runPaper times experiments.NewContext at full scale, then runs every
// experiment in presentation order at Jobs=1, pass after pass, cycling
// through the run's input seeds (a traced run uses the first only, so its
// traced and untraced passes do the same work). Each experiment's rendered
// result must match every earlier pass and run of its input seed (runs keep
// their digests under the state directory), and for --seed paperDigestSeed
// the kept reference digest.
func runPaper(cfg runConfig, r *report) error {
	seeds := paperSeeds(cfg.seed)
	ctxs := make([]*experiments.Context, len(seeds))
	var times []float64
	for i := 0; i < setupReps; i++ {
		k := i % len(seeds)
		ctxs[k] = nil
		runtime.GC()
		t0 := time.Now()
		ctx, err := experiments.NewContext(experiments.Options{Seed: seeds[k], Jobs: 1})
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		ctxs[k] = ctx
	}
	r.set("setup_s", median(times))
	r.set("core.train_s", median(times))

	ref := map[string]string{}
	if cfg.seed == paperDigestSeed {
		if err := json.Unmarshal(paperDigests, &ref); err != nil {
			return fmt.Errorf("parsing the reference digests: %w", err)
		}
	}
	store := filepath.Join(cfg.stateDir, "paper-digests")
	seen, err := loadDigests(store, seeds)
	if err != nil {
		return err
	}
	input := func(pass int) int {
		if cfg.trace {
			return 0
		}
		return pass % len(seeds)
	}
	perExp := map[string][]float64{}
	var tracers []*tracer
	var traceUnattributed []float64
	// An untraced run passes over every input seed at least once, so its
	// work always has the same composition.
	minPasses := len(seeds)
	if cfg.trace {
		minPasses = 2
	}
	plain, traced, err := passLoop(cfg, minPasses, func(pass int, on bool) (float64, float64, error) {
		ctx := ctxs[input(pass)]
		var t *tracer
		if on {
			t = newTracer()
			tracers = append(tracers, t)
		}
		t.beginAt(t.layer("bench.paper_pass"), -1)
		cpu0, start := cpuSeconds(), time.Now()
		for i, e := range paperExperiments {
			t.beginAt(t.layer("experiments."+e.name), int64(i))
			t0 := time.Now()
			res, err := e.run(ctx)
			var out string
			if err == nil {
				out = res.String()
			}
			took := time.Since(t0).Seconds()
			t.end()
			if err != nil {
				r.check(e.name, err.Error())
				continue
			}
			if on {
				perExp[e.name] = append(perExp[e.name], took)
			}
			key := fmt.Sprintf("%d/%s", ctx.Opt.Seed, e.name)
			d := digest(out)
			var bad []string
			if prev, ok := seen[key]; !ok {
				seen[key] = d
			} else if prev != d {
				bad = append(bad, fmt.Sprintf("seed %d: result digest %s differs from an earlier pass or run's %s", ctx.Opt.Seed, d, prev))
			}
			if want, ok := ref[key]; ok && want != d {
				bad = append(bad, fmt.Sprintf("seed %d: result digest %s differs from the reference %s", ctx.Opt.Seed, d, want))
			}
			r.check(e.name, bad...)
		}
		wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
		t.end()
		if on {
			sum := summarize(t)
			traceUnattributed = append(traceUnattributed, 100*sum["bench.paper_pass"].SelfS/wall)
		}
		return wall, cpu, nil
	})
	if err != nil {
		return err
	}
	if err := saveDigests(store, seeds, seen); err != nil {
		return err
	}
	// Per input seed, the median pass; the run reports the median over the
	// seeds.
	bySeed := make([]passTimes, len(seeds))
	for i := range plain.wall {
		bySeed[input(i)].add(plain.wall[i], plain.cpu[i])
	}
	var wall, cpu []float64
	for k, b := range bySeed {
		if len(b.wall) == 0 {
			continue
		}
		fmt.Printf("# paper: input seed %d, pass CPU seconds %.3f\n", seeds[k], b.cpu)
		wall = append(wall, median(b.wall))
		cpu = append(cpu, median(b.cpu))
	}
	r.set("paper.wall_s", median(wall))
	r.set("work_rate", float64(len(paperExperiments))/median(cpu))
	if cfg.trace {
		for name, xs := range perExp {
			r.set("experiments."+name+"_s", median(xs))
		}
		return finishTrace(cfg, r, plain, traced, traceUnattributed, tracers...)
	}
	return nil
}

// loadDigests reads the digests earlier runs kept for the input seeds.
func loadDigests(dir string, seeds []int64) (map[string]string, error) {
	seen := map[string]string{}
	for _, seed := range seeds {
		b, err := os.ReadFile(digestFile(dir, seed))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var byExp map[string]string
		if err := json.Unmarshal(b, &byExp); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", digestFile(dir, seed), err)
		}
		for exp, d := range byExp {
			seen[fmt.Sprintf("%d/%s", seed, exp)] = d
		}
	}
	return seen, nil
}

// saveDigests keeps the input seeds' digests for later runs, replacing each
// file whole so a reader never sees half of one.
func saveDigests(dir string, seeds []int64, seen map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, seed := range seeds {
		byExp := map[string]string{}
		for _, e := range paperExperiments {
			if d, ok := seen[fmt.Sprintf("%d/%s", seed, e.name)]; ok {
				byExp[e.name] = d
			}
		}
		if len(byExp) == 0 {
			continue
		}
		b, err := json.MarshalIndent(byExp, "", "  ")
		if err != nil {
			return err
		}
		path := digestFile(dir, seed)
		if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
	}
	return nil
}

func digestFile(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("seed%d.json", seed))
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}
