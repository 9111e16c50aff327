package main

// metricDef is one metric of the result line, as BENCHMARK.json declares
// it. For a per-layer metric, workload names the one workload that measures
// it; empty means every workload does.
type metricDef struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	workload string
}

// endToEnd are the metrics of an untraced run. Every workload measures each
// of them; work_rate counts the workload's own unit of work (README.md has
// the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"peak_rss_mb", "MB", "lower", ""},
	{"work_rate", "1/s", "higher", ""},
}

// perLayer are the metrics of a traced run, named <layer>.<quantity>. A
// workload reports 0 for a metric another workload measures.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(workload string, defs ...[3]string) {
		for _, d := range defs {
			out = append(out, metricDef{d[0], d[1], d[2], workload})
		}
	}
	add("",
		[3]string{"core.train_s", "s", "lower"},
		[3]string{"trace.overhead_ratio", "ratio", "lower"},
		[3]string{"trace.unattributed_pct", "%", "lower"},
		[3]string{"trace.spans", "count", "lower"},
	)
	add("paper", [3]string{"paper.wall_s", "s", "lower"})
	for _, e := range paperExperiments {
		add("paper", [3]string{"experiments." + e.name + "_s", "s", "lower"})
	}
	add("fleet-day",
		[3]string{"fleet.sess_s_per_s", "1/s", "higher"},
		[3]string{"fleet.throughput_eq2", "sim_s", "higher"},
		[3]string{"fleet.degraded_pct", "%", "lower"},
		[3]string{"fleet.violated_pct", "%", "lower"},
		[3]string{"fleet.wait_mean_s", "sim_s", "lower"},
		[3]string{"platform.tick_s", "s", "lower"},
		[3]string{"platform.tick_self_s", "s", "lower"},
		[3]string{"platform.tick_calls", "count", "lower"},
		[3]string{"platform.submit_s", "s", "lower"},
		[3]string{"platform.placements", "count", "higher"},
		[3]string{"platform.rejected_ticks", "count", "lower"},
		[3]string{"platform.pending_peak", "count", "lower"},
		[3]string{"scheduler.prepare_s", "s", "lower"},
		[3]string{"scheduler.score_s", "s", "lower"},
		[3]string{"scheduler.score_calls", "count", "lower"},
		[3]string{"scheduler.score_ok_ratio", "ratio", "higher"},
		[3]string{"scheduler.new_controller_s", "s", "lower"},
		[3]string{"scheduler.regulate_s", "s", "lower"},
		[3]string{"scheduler.fleetload_s", "s", "lower"},
		[3]string{"scheduler.fleetload_calls", "count", "lower"},
	)
	add("serve",
		[3]string{"serve.sessions", "count", "higher"},
		[3]string{"serve.session_wall_s", "s", "lower"},
		[3]string{"serve.cpu_per_sess_s", "s", "lower"},
		[3]string{"serve.admit_p50_ms", "ms", "lower"},
		[3]string{"serve.admit_tail_ms", "ms", "lower"},
		[3]string{"serve.ttff_p50_ms", "ms", "lower"},
		[3]string{"serve.gap_tail_ms", "ms", "lower"},
		[3]string{"coordinator.admit_ms", "ms", "lower"},
		[3]string{"coordinator.decisions", "count", "higher"},
		[3]string{"coordinator.failovers", "count", "lower"},
		[3]string{"coordinator.probe_failures", "count", "lower"},
		[3]string{"coordinator.summary_age_ms", "ms", "lower"},
		[3]string{"streaming.admit_ms", "ms", "lower"},
		[3]string{"streaming.gap_p50_ms", "ms", "lower"},
		[3]string{"streaming.frames_sent", "count", "higher"},
		[3]string{"streaming.frames_coalesced", "count", "lower"},
		[3]string{"streaming.frames_dropped", "count", "lower"},
		[3]string{"streaming.summaries_served", "count", "higher"},
	)
	return out
}()

// unitOf returns a metric's declared unit.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return "?"
}
