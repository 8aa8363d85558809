package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (perfbench_test.go keeps the two in step);
// Moves records, for a per-layer metric, which end-to-end metric it should
// move and on which workload, so that a performance claim can name both.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// A "cell" is the unit a workload repeats: one fixed-round run on the warm
// sweep worker (sim-sparse-1e6), one grid cell (sim-grid-churn), or one
// SimulateSched run to convergence (sched-hypercube-1e5). An "op" in a
// per-layer metric's name is one cell. A "round" of the async engine is an
// epoch of N initiations.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "round_ms", Unit: "ms", Better: "lower"},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cell_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "mean_rounds", Unit: "rounds", Better: "lower"},
	{Name: "proper_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// The workloads. BENCHMARK.json lists sim-sparse-1e6 and
// sched-hypercube-1e5. sim-grid-churn runs the same way but is not listed:
// its small, cache-resident cells move by 20-30% between runs as the load
// on the host changes, more than any bound the benchmark may set.
const (
	wlSparse = "sim-sparse-1e6"
	wlGrid   = "sim-grid-churn"
	wlSched  = "sched-hypercube-1e5"
)

// perLayerDefs are the traced run's metrics. A layer the workload does not
// run reports 0 (no sim layer runs on sched-hypercube-1e5, no sched layer
// on the sim workloads).
var perLayerDefs = []metricDef{
	{"graph.build_ns", "ns", "lower", "setup_s on every workload"},
	{"setup.inputs_ns", "ns", "lower", "setup_s on " + wlSparse + " and " + wlSched},
	{"setup.warmup_ns", "ns", "lower", "setup_s on every workload"},

	{"env.step_ns_per_round", "ns", "lower", "cells_per_s on " + wlGrid + "; flat on " + wlSparse},
	{"env.touched_edges_per_round", "count", "lower", "cells_per_s on " + wlGrid + "; flat on " + wlSparse},
	{"dynamics.ns_per_round", "ns", "lower", "round_ms on " + wlSparse + "; cells_per_s on " + wlGrid},

	{"sim.touched_ns_per_round", "ns", "lower", "cells_per_s on " + wlGrid},
	{"sim.step_ns_per_round", "ns", "lower", "round_ms on " + wlSparse + "; cells_per_s and cell_ms_p90 on " + wlGrid},
	{"sim.groups_per_round", "count", "lower", "round_ms on " + wlSparse},
	{"sim.step_useful_ratio", "ratio", "higher", "round_ms on " + wlSparse},
	{"sim.round_ns", "ns", "lower", "round_ms on " + wlSparse + " and " + wlGrid},
	{"sim.hot_share", "ratio", "lower", "round_ms on " + wlSparse},
	{"sim.delta_share", "ratio", "lower", "cells_per_s on " + wlGrid},

	{"engine.matcher_update_ns_per_round", "ns", "lower", "cells_per_s on " + wlGrid},
	{"engine.match_ns_per_round", "ns", "lower", "round_ms on " + wlSparse + " (its floor once step and monitor shrink)"},
	{"engine.matched_pairs_per_round", "count", "higher", "round_ms on " + wlSparse},
	{"engine.monitor_ns_per_round", "ns", "lower", "round_ms on " + wlSparse + "; flat on " + wlGrid},
	{"engine.staged_deltas_per_round", "count", "lower", "round_ms on " + wlSparse + "; flat on " + wlGrid},
	{"engine.shard_merges_per_round", "count", "lower", "round_ms on " + wlSparse + "; flat on " + wlGrid},
	{"engine.pool_items_per_round", "count", "lower", "round_ms on " + wlSparse + "; flat on " + wlGrid},
	{"engine.pool_serial_frac", "ratio", "lower", "round_ms on " + wlSparse + "; flat on " + wlGrid},

	{"sweep.cold_cell_ns", "ns", "lower", "setup_s and cells_per_s on " + wlGrid},
	{"sweep.worker_idle_frac", "ratio", "lower", "cells_per_s on " + wlGrid},
	{"sweep.cell_self_ns", "ns", "lower", "cells_per_s on " + wlGrid + "; round_ms on " + wlSparse},

	{"sched.ops", "count", "lower", "proper_steps_per_s and cell_ms_p50 on " + wlSched},
	{"sched.proper_ratio", "ratio", "higher", "proper_steps_per_s on " + wlSched},
	{"sched.busy_ratio", "ratio", "lower", "proper_steps_per_s on " + wlSched},
	{"sched.lost", "count", "lower", "cell_ms_p50 on " + wlSched},
	{"sched.steals", "count", "lower", "proper_steps_per_s on " + wlSched},
	{"sched.mean_queue_depth", "count", "lower", "cell_ms_p50 on " + wlSched},
	{"sched.admits", "count", "lower", "proper_steps_per_s on " + wlSched},
	{"sched.parks", "count", "lower", "cell_ms_p50 on " + wlSched},
	{"sched.backoffs", "count", "lower", "proper_steps_per_s on " + wlSched},
	{"sched.quiescence_checks", "count", "lower", "cell_ms_p50 on " + wlSched},

	{"go.allocs_per_op", "count", "lower", "peak_rss_mb and round_ms on every workload"},
	{"go.alloc_bytes_per_op", "B", "lower", "peak_rss_mb on every workload"},
	{"go.gc_cycles_per_op", "count", "lower", "round_ms on every workload"},
	{"go.gc_pause_ns_per_op", "ns", "lower", "cell_ms_p90 on every workload"},

	{"bench.op_self_ns", "ns", "lower", "none: the benchmark's own share of an op"},
	{"trace.overhead.setup_s", "s", "lower", "none: traced minus untraced setup_s"},
	{"trace.overhead.round_ms", "ms", "lower", "none: traced minus untraced round_ms"},
	{"trace.overhead.cells_per_s", "1/s", "higher", "none: traced minus untraced cells_per_s"},
	{"trace.overhead.cell_ms_p50", "ms", "lower", "none: traced minus untraced cell_ms_p50"},
	{"trace.overhead.cell_ms_p90", "ms", "lower", "none: traced minus untraced cell_ms_p90"},
	{"trace.overhead.proper_steps_per_s", "1/s", "higher", "none: traced minus untraced proper_steps_per_s"},
}
