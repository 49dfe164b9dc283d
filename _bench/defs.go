package main

// The metric vocabulary. BENCHMARK.json lists the same names with the same
// units (TestBenchmarkJSONMatchesDefs keeps the two in step); later issues
// name a metric and a workload from these tables.

type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run prints: numbers a user of the system
// sees, every one defined on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rounds_per_s", "rounds/s"},
	{"round_p50_ms", "ms"},
	{"cells_per_s", "cells/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run prints. A workload reports 0 for a layer it
// does not exercise.
var perLayer = []metricDef{
	// tensor: kernel replay at the workload's own local-update shapes.
	{"tensor.matmul.ns_per_flop", "ns/flop"},
	{"tensor.matmul_transa.ns_per_flop", "ns/flop"},
	{"tensor.matmul_transb.ns_per_flop", "ns/flop"},
	{"tensor.matmul.flops_per_update", "count"},
	{"tensor.im2col.ns_per_elem", "ns/elem"},
	{"tensor.col2im.ns_per_elem", "ns/elem"},
	{"tensor.kernels.share_of_update_pct", "%"},
	// nn
	{"nn.forward.p50_ms", "ms"},
	{"nn.backward.p50_ms", "ms"},
	{"nn.sgd_step.p50_us", "us"},
	{"nn.param_copy.p50_us", "us"},
	{"nn.encode_params.p50_us", "us"},
	{"nn.decode_params.p50_us", "us"},
	{"nn.param_bytes", "bytes"},
	// fl
	{"fl.local_update.p50_ms", "ms"},
	{"fl.train_phase.p50_ms", "ms"},
	{"fl.train_phase.parallel_eff", "ratio"},
	{"fl.evaluate.p50_ms", "ms"},
	{"fl.fedavg.p50_us", "us"},
	{"fl.fedavg.bytes", "bytes"},
	{"fl.new_engine_s", "s"},
	{"fl.engine.heap_mb_after_setup", "MB"},
	{"fl.step.p50_ms", "ms"},
	{"fl.step.p90_ms", "ms"},
	{"fl.step.p99_ms", "ms"},
	{"fl.step.allocs_per_round", "count"},
	{"fl.step.bytes_per_round", "bytes"},
	{"fl.step.trace_overhead_pct", "%"},
	{"fl.shadow_round.coverage_pct", "%"},
	{"fl.shadow_round.vs_step_pct", "%"},
	{"fl.final_accuracy", "fraction"},
	// core / selection
	{"core.plan.p50_ms", "ms"},
	{"core.select.p50_ms", "ms"},
	{"core.dvfs.p50_ms", "ms"},
	{"core.select.heap_pushes", "count"},
	{"core.new_scheduler_s", "s"},
	{"selection.new_helcfl_s", "s"},
	{"selection.hier_plan_e8.p50_ms", "ms"},
	// sim / wireless / device
	{"sim.delay_s", "s"},
	{"sim.energy_j", "J"},
	{"sim.simulate_round.p50_ms", "ms"},
	{"wireless.schedule_tdma.p50_ms", "ms"},
	{"wireless.upload_delay_into.ns_per_user", "ns/user"},
	{"device.new_fleet_s", "s"},
	{"device.fleet_to_aos_s", "s"},
	// dataset / experiments / grid
	{"dataset.generate_s", "s"},
	{"dataset.partition_s", "s"},
	{"experiments.build_env.p50_ms", "ms"},
	{"experiments.plan_build_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"experiments.env_cache.warm_campaign_s", "s"},
	{"grid.cell.p50_ms", "ms"},
	{"grid.cell.max_ms", "ms"},
	{"grid.cell.count", "count"},
	{"grid.worker_busy_pct", "%"},
	{"grid.serial_campaign_s", "s"},
	{"grid.scaling_eff", "ratio"},
	// deploy / checkpoint
	{"deploy.register.p50_ms", "ms"},
	{"deploy.poll.p50_ms", "ms"},
	{"deploy.polls_per_round", "ratio"},
	{"deploy.model.p50_ms", "ms"},
	{"deploy.model.p99_ms", "ms"},
	{"deploy.upload.p50_ms", "ms"},
	{"deploy.upload.p99_ms", "ms"},
	{"deploy.upload.server_p50_ms", "ms"},
	{"deploy.upload.bytes", "bytes"},
	{"deploy.model.bytes", "bytes"},
	{"deploy.wire_bytes_per_round", "bytes"},
	{"deploy.http.non2xx", "count"},
	{"deploy.round.p50_ms", "ms"},
	{"deploy.round.p99_ms", "ms"},
	{"checkpoint.wal_append.p50_us", "us"},
	{"checkpoint.snapshot_write.p50_ms", "ms"},
	{"checkpoint.encode_snapshot.p50_us", "us"},
	// Share of the traced campaign's summed span self time, by layer.
	{"layer.nn.self_pct", "%"},
	{"layer.fl.self_pct", "%"},
	{"layer.core.self_pct", "%"},
	{"layer.sim.self_pct", "%"},
	{"layer.device.self_pct", "%"},
	{"layer.experiments.self_pct", "%"},
	{"layer.grid.self_pct", "%"},
	{"layer.deploy.self_pct", "%"},
	{"layer.transport.self_pct", "%"},
	{"layer.harness.self_pct", "%"},
	// process / harness
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_total_ms", "ms"},
	{"proc.cpu_util_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// metrics is what a run measured, by name. A name missing from the map prints
// as 0.
type metrics map[string]float64
