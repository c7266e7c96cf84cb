//! The benchmark's contract: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is [`benchmark_json`] verbatim (`--manifest`
//! prints it, `--selfcheck` refuses to run against a stale copy).

/// How long one run measures, seconds (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Directory holding this benchmark, relative to the repository root.
pub const PATH: &str = "crates/bench/examples/e2e";

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "soc24_des",
        "Fig. 6 24-tile ring SoC on 4+1 partitions, DES golden engine: sim.engine + libdn + ir.exec, \
         no threads or sockets; largest FireRipper compile",
    ),
    (
        "noc6_threads",
        "6-tile ring SoC on 3+1 partitions, one OS thread each: sim.threaded synchronisation \
         dominates; bypass workload for every wire optimisation",
    ),
    (
        "noc6_net_unix",
        "same cut through prepare_job/place_cluster/execute_placed over unix sockets: codec, worker, \
         coordinator, reliability and syscalls are ~94% of the cycle",
    ),
    (
        "ring32_mono",
        "32-node pure-RTL ring NoC on the monolithic compiled interpreter, every node injecting: \
         ir.exec is ~100% of the work and busy every cycle",
    ),
    (
        "rocket_sliced64",
        "RocketLite validation SoC on the 64-lane bit-sliced interpreter, run to done: mul/wide \
         ops scalarise through the reference walker",
    ),
    (
        "serve_mix",
        "in-process JobServer + pooled workers, closed loop, 1 client, 300-cycle jobs: 80% rotate \
         over 4 cached designs, 20% never seen; caches and placement dominate",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// Every end-to-end metric, emitted by every workload's untraced run.
/// A batch workload's "job" is one repetition (text + spec → checked
/// result), so the job metrics are defined on all six workloads. Times
/// are reference-clock times (`trace.rs`).
///
/// One bound serves all six workloads, so the noisiest sets it. The
/// driver refuses a benchmark whose own ten-seed spread (inter-quartile,
/// of the median) exceeds a bound, and asks for a third of the bound as
/// margin. On the reference box five workloads spread 1–5 % on every
/// metric and `serve_mix` (a daemon and five threads on two cores)
/// 6–9 % on the time metrics and 5–7 % on memory, so time is bound at
/// 25 % and memory at 20 % rather than at the 10 % / 5 % issue 11 asked
/// for.
pub const END_TO_END: [EndToEnd; 7] = [
    ("target_cycles_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_us_per_cycle", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_latency_ms_p50", "ms", "lower", 0.25),
    ("admission_ms_p50", "ms", "lower", 0.25),
];

/// `(name, unit)` of rows a run prints beside the contract's: the p95 has
/// too few samples beyond it in one run to gate on; a false deadlock is a
/// threaded repetition the harness ran again (`layers::in_process`).
pub const INFORMATIONAL: [(&str, &str); 2] = [
    ("job_latency_ms_p95", "ms"),
    ("sim.threaded.false_deadlocks", "events"),
];

/// A per-layer metric: `(name, unit, better, exact)`. `exact` metrics
/// are deterministic counts: identical across repetitions, runs and
/// commits unless simulated behaviour changed.
pub type PerLayer = (&'static str, &'static str, &'static str, bool);

/// Every per-layer metric, emitted by every workload's traced run.
pub const PER_LAYER: [PerLayer; 50] = [
    // Setup spans.
    ("ir.parser.parse_s", "s", "lower", false),
    ("ir.typecheck.validate_s", "s", "lower", false),
    ("ir.tape.compile_s", "s", "lower", false),
    ("ir.tape.compile_parts_s", "s", "lower", false),
    ("ir.tape.encode_s", "s", "lower", false),
    ("ir.tape.decode_s", "s", "lower", false),
    ("ir.slice.compile_s", "s", "lower", false),
    ("ripper.compile_s", "s", "lower", false),
    ("fpga.fit_s", "s", "lower", false),
    ("sim.build_s", "s", "lower", false),
    ("net.coordinator.prepare_job_s", "s", "lower", false),
    ("net.coordinator.place_cluster_s", "s", "lower", false),
    // Tape engines.
    ("ir.exec.mono_ns_per_cycle", "ns", "lower", false),
    ("ir.exec.defs_run_per_cycle", "count", "lower", true),
    ("ir.exec.dirty_skip_rate", "ratio", "higher", true),
    ("ir.exec.settle_passes_per_cycle", "count", "lower", true),
    ("ir.slice.lane_ns_per_cycle", "ns", "lower", false),
    ("ir.slice.gain_vs_compiled", "ratio", "higher", false),
    // LI-BDN and the in-process engines.
    ("libdn.host_step_ns", "ns", "lower", false),
    ("sim.engine.run_ns_per_cycle", "ns", "lower", false),
    ("sim.engine.self_ns_per_cycle", "ns", "lower", false),
    ("sim.engine.fmr_max", "ratio", "lower", true),
    ("sim.engine.input_stall_share", "ratio", "lower", true),
    ("sim.engine.output_stall_share", "ratio", "lower", true),
    ("sim.link_tokens_per_cycle", "count", "lower", true),
    ("sim.modelled_target_mhz", "MHz", "higher", true),
    ("sim.threaded.run_ns_per_cycle", "ns", "lower", false),
    ("sim.threaded.speedup_vs_des", "ratio", "higher", false),
    (
        "sim.threaded.ctx_switches_per_cycle",
        "count",
        "lower",
        false,
    ),
    // The wire.
    ("transport.reliable.frame_ns", "ns", "lower", false),
    ("net.codec.encode_ns_per_token", "ns", "lower", false),
    ("net.codec.decode_ns_per_token", "ns", "lower", false),
    ("net.codec.bytes_per_token", "B", "lower", true),
    ("net.stream.unix_rtt_us", "us", "lower", false),
    ("net.execute_ns_per_cycle", "ns", "lower", false),
    ("net.gap_vs_threads", "ratio", "lower", false),
    ("net.ctx_switches_per_cycle", "count", "lower", false),
    ("net.sys_cpu_share", "ratio", "lower", false),
    ("net.residual_ns_per_cycle", "ns", "lower", false),
    // The job server.
    ("serve.cache.hit_ratio", "ratio", "higher", true),
    ("serve.admission_hit_same_us_p50", "us", "lower", false),
    ("serve.admission_hit_rotated_us_p50", "us", "lower", false),
    ("serve.admission_miss_us_p50", "us", "lower", false),
    ("serve.exec_ms_p50", "ms", "lower", false),
    ("serve.client_overhead_ms_p50", "ms", "lower", false),
    // Model accuracy (Table II) and trust in the rows above.
    ("validation.exact_cycle_mismatches", "count", "lower", true),
    ("validation.sha3_fast_cycle_error_pct", "%", "lower", true),
    ("validation.rocket_fast_cycle_error_pct", "%", "lower", true),
    ("validation.rocket_exact_slowdown", "ratio", "lower", false),
    ("e2e.trace_overhead_pct", "%", "lower", false),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"{PATH}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{PATH}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}\n",
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}{}\n",
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better, _)) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{}\n",
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
