// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three workloads — the paper run, a simulated fleet day, and routed
// serving — and prints every metric by name with its unit, then one JSON
// result line:
//
//	go run . -workload fleet-day -seed 1 -seconds 30 -trace 0
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) time every call the benchmark makes into a layer, keep the spans
// in memory, write them under -state-dir when the run ends, and report the
// per-layer metrics instead. README.md maps each metric to its layer and
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// maxUnattributedPct is the share of a traced pass's wall time that may fall
// outside every layer span (the benchmark's own loop); above it the traced
// run fails its self-time check.
const maxUnattributedPct = 5.0

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stateDir string // spans and the paper's digests of earlier runs
}

// report is one run's outcome: operation counts, failure messages, and the
// measured metrics by name.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check counts one checked operation, failed when problems are given.
func (r *report) check(what string, problems ...string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	for _, p := range problems {
		r.problems = append(r.problems, what+": "+p)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// workloads maps each workload's name to its runner.
var workloads = map[string]func(cfg runConfig, r *report) error{
	"paper":     runPaper,
	"fleet-day": runFleet,
	"serve":     runServe,
}

func main() {
	cfg := runConfig{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper, fleet-day or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "1 times every layer call and reports per-layer metrics")
	flag.StringVar(&cfg.stateDir, "state-dir", ".bench_build", "where runs keep spans and result digests")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload paper|fleet-day|serve [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1

	r := newReport()
	if err := workloads[cfg.workload](cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	r.set("peak_rss_mb", peakRSSMB())
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", p)
	}
	line, err := resultLine(cfg, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultLine prints the human report (every metric the workload measured)
// and builds the JSON result: the end-to-end metrics of an untraced run, or
// the per-layer metrics of a traced one. A per-layer metric of a layer this
// workload does not call reads 0.
func resultLine(cfg runConfig, r *report) (string, error) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range names {
		fmt.Printf("%-36s %16.6f %s\n", n, r.values[n], unitOf(n))
	}

	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range set {
		v, ok := r.values[m.Name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeSetup runs set-up setupReps times, records the median as setup_s, and
// returns the last set-up's result. Each earlier result is released (when
// release is given) and collected before the next set-up starts, so the
// repeats neither overlap nor inflate the peak resident set.
func timeSetup[T any](r *report, build func() (T, error), release func(T)) (T, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if release != nil {
				release(last)
			}
			var zero T
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	r.set("setup_s", median(times))
	return last, nil
}

// passTimes are the wall and process CPU seconds of a run's passes.
type passTimes struct{ wall, cpu []float64 }

func (p *passTimes) add(wall, cpu float64) {
	p.wall, p.cpu = append(p.wall, wall), append(p.cpu, cpu)
}

// passLoop runs pass until the measuring window is used up: at least
// minPasses passes, and no new pass once the next would likely end past the
// window. A pass returns the wall and CPU seconds of the work it measured.
// Each pass starts from a collected heap, so one pass's garbage does not
// inflate the next one's memory. In a traced run passes alternate untraced
// and traced, starting untraced, so the ratio of their medians is the
// tracing overhead; such a run makes at least one pass of each.
func passLoop(cfg runConfig, minPasses int, pass func(i int, traced bool) (wall, cpu float64, err error)) (plain, traced passTimes, err error) {
	if cfg.trace && minPasses < 2 {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		on := cfg.trace && i%2 == 1
		runtime.GC()
		wall, cpu, err := pass(i, on)
		if err != nil {
			return plain, traced, err
		}
		if on {
			traced.add(wall, cpu)
		} else {
			plain.add(wall, cpu)
		}
		elapsed := time.Since(start).Seconds()
		if i+1 >= minPasses && elapsed+elapsed/float64(i+1) > cfg.seconds {
			return plain, traced, nil
		}
	}
}

// cpuSeconds is the process's user plus system CPU time so far. On a shared
// host it moves far less with other tenants' load than wall time does.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// finishTrace reports the tracing overhead and the self-time check, and
// writes the kept spans. plain and traced time the run's untraced and traced
// passes; unattributed holds, per traced pass, the
// percentage of its wall time that no layer span covered.
func finishTrace(cfg runConfig, r *report, plain, traced passTimes, unattributed []float64, tracers ...*tracer) error {
	r.set("trace.overhead_ratio", median(traced.wall)/median(plain.wall))
	u := median(unattributed)
	r.set("trace.unattributed_pct", u)
	var bad []string
	if u > maxUnattributedPct {
		bad = append(bad, fmt.Sprintf("layer self times leave %.2f%% of the traced wall time unattributed (limit %.0f%%)", u, maxUnattributedPct))
	}
	r.check("trace self-time sum", bad...)
	path := filepath.Join(cfg.stateDir, "spans", fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
	kept, dropped, err := writeSpans(path, tracers...)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.set("trace.spans", float64(kept+dropped))
	fmt.Printf("# trace: %d spans kept in %s, %d counted but not kept\n", kept, path, dropped)
	return nil
}
