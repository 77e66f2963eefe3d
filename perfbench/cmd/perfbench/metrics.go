package main

// metric is one reported figure: its name and unit as BENCHMARK.json
// declares them (a test keeps the two in step).
type metric struct {
	name, unit string
}

// evalIDs are the experiment ids `reachsim -exp all` runs, in the order
// it prints them.
var evalIDs = []string{
	"table1", "table2", "table3", "table4",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"ablation-gam", "ablation-mapping", "ablation-nsbuffer", "ablation-granularity",
	"motivation", "loadsweep", "skew", "reverselookup", "multitenant", "recallsweep",
}

// cpuLayers are the cpu_share.<layer> names: every internal/ package,
// the Go runtime and text encoding.
var cpuLayers = []string{
	"accel", "cache", "cbir", "cluster", "cnn", "config", "core", "energy",
	"experiments", "flight", "fpga", "hls", "inspect", "kernels", "mem",
	"metrics", "noc", "qtrace", "report", "runner", "sim", "storage",
	"trace", "workload", "runtime", "encoding",
}

// endToEnd are the --trace 0 metrics.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_s", "s"},
	{"peak_mem_mb", "MB"},
	{"artifact_mb", "MB"},
}

// perLayer lists the --trace 1 metrics. A workload that does not exercise
// a layer reports 0 for it.
func perLayer() []metric {
	var ms []metric
	for _, id := range evalIDs {
		ms = append(ms, metric{"experiments." + id + "_s", "s"})
	}
	ms = append(ms, metric{"runner.parallel_eff", "ratio"})
	for _, l := range cpuLayers {
		ms = append(ms, metric{"cpu_share." + l, "share"})
	}
	return append(ms,
		metric{"sim.events", "count"},
		metric{"sim.ns_per_event", "ns"},
		metric{"sim.pending_peak", "count"},
		metric{"sim.rounds", "count"},
		metric{"sim.events_per_round", "events/round"},
		metric{"sim.round_us", "us"},
		metric{"sim.parallel_bound", "ratio"},
		metric{"sim.pj_speedup", "x"},
		metric{"sim.pj2_crash_share", "share"},
		metric{"cluster.new_s", "s"},
		metric{"cluster.allocs_per_query", "count"},
		metric{"cluster.alloc_bytes_per_query", "B"},
		metric{"cluster.live_bytes_per_query", "B"},
		metric{"metrics.samples", "count"},
		metric{"metrics.changed_sample_ratio", "ratio"},
		metric{"metrics.csv_bytes", "B"},
		metric{"metrics.csv_write_s", "s"},
		metric{"metrics.on_barrier_ns", "ns"},
		metric{"trace.json_bytes", "B"},
		metric{"trace.build_s", "s"},
		metric{"trace.write_s", "s"},
		metric{"qtrace.bytes", "B"},
		metric{"qtrace.write_s", "s"},
		metric{"flight.observe_ns", "ns"},
		metric{"inspect.slo_observe_ns", "ns"},
		metric{"flight.bundle_bytes", "B"},
		metric{"flight.detections", "count"},
		metric{"runtime.gc_cycles", "count"},
		metric{"runtime.gc_pause_ms", "ms"},
	)
}
