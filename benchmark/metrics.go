package main

// metricDef names one metric the benchmark reports. The tables below are
// the code-side source of truth; BENCHMARK.json at the repository root
// repeats them for the driver, and TestBenchmarkJSONMatchesCode keeps the
// two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare (and the driver) calls it a regression.
	// Per-layer metrics carry none.
	Bound float64
	// Exact marks deterministic quantities: -compare demands equality. The
	// small Bound they still carry is only for BENCHMARK.json, whose
	// contract wants a positive share.
	Exact bool
}

// endToEnd is what a caller of earthd sees. Every workload reports all
// seven. One bound per metric has to hold on every workload, so the
// wall-time bounds follow the noisiest one: over ten seeds halo_sharded's
// quartile spread was 0.10 of its median on the 2-vCPU host the benchmark
// was written on (README, "Noise"), and 0.25 is the most the contract
// allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "correct_share", Unit: "share", Better: "higher", Bound: 0.001, Exact: true},
	{Name: "sim_time_ms", Unit: "sim_ms", Better: "lower", Bound: 0.001, Exact: true},
	{Name: "comm_ops", Unit: "count", Better: "lower", Bound: 0.001, Exact: true},
}

// perLayer lists the single-layer metrics, grouped by the package they
// price. README.md says which end-to-end metric each should move and on
// which workload.
var perLayer = []metricDef{
	// Compile phases, median per compiling job of the traced pass.
	{Name: "contenthash.source_us", Unit: "us", Better: "lower"},
	{Name: "earthc.parse_us", Unit: "us", Better: "lower"},
	{Name: "earthc.inline_us", Unit: "us", Better: "lower"},
	{Name: "earthc.restructure_us", Unit: "us", Better: "lower"},
	{Name: "sema.check_us", Unit: "us", Better: "lower"},
	{Name: "lower.program_us", Unit: "us", Better: "lower"},
	{Name: "pointsto.analyze_us", Unit: "us", Better: "lower"},
	{Name: "rwsets.analyze_us", Unit: "us", Better: "lower"},
	{Name: "locality.analyze_us", Unit: "us", Better: "lower"},
	{Name: "placement.analyze_us", Unit: "us", Better: "lower"},
	{Name: "commsel.transform_us", Unit: "us", Better: "lower"},
	{Name: "threaded.generate_us", Unit: "us", Better: "lower"},
	// core.Pipeline.Do by cache outcome.
	{Name: "core.do_cold_us", Unit: "us", Better: "lower"},
	{Name: "core.do_warm_us", Unit: "us", Better: "lower"},
	{Name: "core.do_edit_us", Unit: "us", Better: "lower"},
	{Name: "core.do_cold_allocs", Unit: "count", Better: "lower"},
	{Name: "core.layers_over_do", Unit: "ratio", Better: "lower"},
	// Compile cache, from earthd's own counters during the measured window.
	{Name: "cache.unit_hit_share", Unit: "share", Better: "higher"},
	{Name: "cache.funcs_reused_share", Unit: "share", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	// IR sizes and optimizer decisions, summed over the distinct programs.
	{Name: "simple.basic_stmts", Unit: "count", Better: "lower"},
	{Name: "threaded.instrs", Unit: "count", Better: "lower"},
	{Name: "placement.read_tuples", Unit: "count", Better: "higher"},
	{Name: "placement.write_tuples", Unit: "count", Better: "higher"},
	{Name: "commsel.pipelined_reads", Unit: "count", Better: "higher"},
	{Name: "commsel.blocked_reads", Unit: "count", Better: "higher"},
	{Name: "commsel.pipelined_writes", Unit: "count", Better: "higher"},
	{Name: "commsel.blocked_writes", Unit: "count", Better: "higher"},
	{Name: "commsel.reads_eliminated", Unit: "count", Better: "higher"},
	{Name: "commsel.ops_pct_of_simple", Unit: "%", Better: "lower"},
	{Name: "commsel.time_gain_pct", Unit: "%", Better: "higher"},
	// Simulator.
	{Name: "earthsim.new_us", Unit: "us", Better: "lower"},
	{Name: "earthsim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "earthsim.events", Unit: "count", Better: "lower"},
	{Name: "earthsim.guest_instrs", Unit: "count", Better: "lower"},
	{Name: "earthsim.instrs_per_event", Unit: "ratio", Better: "higher"},
	{Name: "earthsim.seq_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "earthsim.sharded_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "earthsim.sharded_over_seq", Unit: "ratio", Better: "lower"},
	{Name: "earthsim.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "earthsim.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "earthsim.fault_retries", Unit: "count", Better: "lower"},
	{Name: "earthsim.fault_overhead_share", Unit: "share", Better: "lower"},
	{Name: "metrics.sampler_overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.recorder_overhead_share", Unit: "share", Better: "lower"},
	// Journal.
	{Name: "journal.accepted_us", Unit: "us", Better: "lower"},
	{Name: "journal.completed_us", Unit: "us", Better: "lower"},
	{Name: "journal.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "journal.segments", Unit: "count", Better: "lower"},
	{Name: "journal.compactions", Unit: "count", Better: "lower"},
	{Name: "journal.lag_max", Unit: "count", Better: "lower"},
	// Service, as earthd itself accounts for the measured window.
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.compile_us", Unit: "us", Better: "lower"},
	{Name: "server.run_us", Unit: "us", Better: "lower"},
	{Name: "server.batched_share", Unit: "share", Better: "lower"},
	{Name: "server.refused", Unit: "count", Better: "lower"},
	{Name: "server.stage_accept_share", Unit: "share", Better: "lower"},
	{Name: "server.stage_queue_wait_share", Unit: "share", Better: "lower"},
	{Name: "server.stage_compile_share", Unit: "share", Better: "lower"},
	{Name: "server.stage_sim_run_share", Unit: "share", Better: "lower"},
	{Name: "server.stage_journal_complete_share", Unit: "share", Better: "lower"},
	{Name: "server.stage_respond_share", Unit: "share", Better: "lower"},
	// The earthd process.
	{Name: "earthd.cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "earthd.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "earthd.gc_cycles", Unit: "count", Better: "lower"},
	// Load generator.
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.job_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.job_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.first_half_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.second_half_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "class.plain.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.cold.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.edit.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.traced.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.faulted.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.power.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.tsp.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.health.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.perimeter.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.voronoi.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "prog.halo.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tracer.run_s", Unit: "s", Better: "lower"},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a table, so a
// metric the table names but no code path filled reads 0 ("not exercised
// by this workload") instead of going missing.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		out[d.Name] = measurement{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
