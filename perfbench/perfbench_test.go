package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"cocg/internal/core"
	"cocg/internal/experiments"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/scheduler"
)

var update = flag.Bool("update", false, "regenerate testdata/paper_digests.json from the current paper run")

// smoke runs one workload traced for a short window and checks that it
// failed no operation and measured every end-to-end metric and every
// per-layer metric of its own.
func smoke(t *testing.T, workload string, seconds float64) {
	t.Helper()
	cfg := runConfig{workload: workload, seed: 1, seconds: seconds, trace: true, stateDir: t.TempDir()}
	r := newReport()
	if err := workloads[workload](cfg, r); err != nil {
		t.Fatal(err)
	}
	r.set("peak_rss_mb", peakRSSMB())
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.problems)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		_, ok := r.values[m.Name]
		if mine := m.workload == "" || m.workload == workload; mine && !ok {
			t.Errorf("metric %s was not measured", m.Name)
		}
	}
	for name := range r.values {
		if unitOf(name) == "?" {
			t.Errorf("metric %s is not in the catalogue", name)
		}
	}
	for _, m := range endToEnd {
		if r.values[m.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, r.values[m.Name])
		}
	}
}

func TestSmokePaper(t *testing.T) { smoke(t, "paper", 1) }

func TestSmokeFleetDay(t *testing.T) { smoke(t, "fleet-day", 1) }

func TestSmokeServe(t *testing.T) { smoke(t, "serve", 2) }

// TestTracedFleetDayIdentical pins that the timing decorator measures the
// same program: a traced day leaves byte-identical records, counters and
// queue to an untraced one.
func TestTracedFleetDayIdentical(t *testing.T) {
	sys, err := core.Train(gamesim.AllGames(), core.TrainOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := fleetSchedule(sys, 3)
	_, plain, err := runFleetDay(sys, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	_, traced, err := runFleetDay(sys, sched, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := traced.Policy.(*timedPolicy); !ok {
		t.Fatalf("traced day ran %T, want the timing decorator", traced.Policy)
	}
	if len(plain.Records()) == 0 {
		t.Fatal("the day completed no session")
	}
	if a, b := fleetStateBytes(plain), fleetStateBytes(traced); !bytes.Equal(a, b) {
		t.Fatalf("traced day differs from the untraced one:\n%.400s\nvs\n%.400s", a, b)
	}
	if sum := summarize(tr); sum["scheduler.regulate"].Calls == 0 || sum["scheduler.score"].Calls == 0 {
		t.Fatalf("decorator saw no scheduler calls: %+v", sum)
	}
}

// noopCoCG is CoCG claiming a no-op regulator, to check that the decorator
// passes that marker through.
type noopCoCG struct{ *scheduler.CoCG }

func (noopCoCG) RegulateIsNoop() bool { return true }

// optionalInterfaces lists which platform optional interfaces p implements.
func optionalInterfaces(p platform.Policy) []string {
	var out []string
	checks := map[string]bool{}
	_, checks["Scorer"] = p.(platform.Scorer)
	_, checks["ScratchScorer"] = p.(platform.ScratchScorer)
	_, checks["PlacementPreparer"] = p.(platform.PlacementPreparer)
	_, checks["LoadSummarizer"] = p.(platform.LoadSummarizer)
	_, checks["FleetSummarizer"] = p.(platform.FleetSummarizer)
	_, checks["ConcurrentTicker"] = p.(platform.ConcurrentTicker)
	_, checks["NoopRegulator"] = p.(platform.NoopRegulator)
	for name, ok := range checks {
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func TestTimedPolicyInterfaces(t *testing.T) {
	sys, err := core.Train(gamesim.AllGames()[:1], core.TrainOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cocg := sys.Policy(core.PolicyCoCG)
	for _, inner := range []platform.Policy{cocg, noopCoCG{cocg.(*scheduler.CoCG)}} {
		timed, err := newTimedPolicy(inner, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalInterfaces(timed), optionalInterfaces(inner); !reflect.DeepEqual(got, want) {
			t.Errorf("decorator of %T implements %v, inner implements %v", inner, got, want)
		}
		ctl, err := timed.NewController(gamesim.AllGames()[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ctl.(*scheduler.Controller); !ok {
			t.Errorf("decorator wrapped the controller: %T", ctl)
		}
	}
	if _, err := newTimedPolicy(sys.Policy(core.PolicyVBP), newTracer()); err == nil {
		t.Error("decorator accepted a policy without the CoCG interfaces")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
		}
		return out
	}
	if got := decl.EndToEnd; !reflect.DeepEqual(strip(got), strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, strip(endToEnd))
	}
	if got := decl.PerLayer; !reflect.DeepEqual(strip(got), strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, strip(perLayer))
	}
}

// TestPaperDigests regenerates the reference digests with -update; without
// it the paper smoke test already checks them.
func TestPaperDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/paper_digests.json")
	}
	d := map[string]string{}
	for _, seed := range paperSeeds(paperDigestSeed) {
		ctx, err := experiments.NewContext(experiments.Options{Seed: seed, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range paperExperiments {
			res, err := e.run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			d[fmt.Sprintf("%d/%s", seed, e.name)] = digest(res.String())
		}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/paper_digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
