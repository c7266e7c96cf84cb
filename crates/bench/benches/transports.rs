//! Socket transports vs in-process threads on the NoC-partitioned ring
//! SoC.
//!
//! The distributed backend pays for real I/O: every cross-partition
//! token is framed, CRC'd, credit-gated, and relayed through the
//! coordinator over an actual socket. This bench prices that against
//! the `Threads` backend's lock-free in-process channels on the same
//! 4-partition cut, for both net transports (localhost TCP and
//! Unix-domain sockets). All variants are gated on identical per-link
//! token totals first — timing a wrong answer is meaningless.
//!
//! The headline `net_tcp`/`net_unix` entries are the number the
//! roadmap's "within 3× of threads" target is scored against.
//!
//! Two priced add-ons ride on each transport: the coordinated-checkpoint
//! variants (`net_*_ckpt`) and the live-cockpit variants
//! (`net_*_attached`, one control client attached but idle — the
//! standing cost of being observable). Both are scored against a <5%
//! overhead target vs their base row.
//!
//! Besides the criterion timings, a machine-readable summary with the
//! headline numbers (target-cycles/s, ns per target cycle, and
//! cross-partition tokens/s, best of five) is written to
//! `BENCH_net.json`; EXPERIMENTS.md quotes it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fireaxe::prelude::*;
use fireaxe_net::codec::{read_msg, write_msg, PROTOCOL_MAGIC};
use fireaxe_net::{
    run_cluster, run_cluster_controlled, serve, Msg, NetListener, NetStream, RecoveryOptions,
    WireSettings, PROTOCOL_VERSION,
};
use std::time::{Duration, Instant};

// Long enough that cluster bring-up (circuit compile + handshake per
// worker, ~50 ms — a constant, not a per-cycle cost) stays well under
// 10% of the timed window; the headline number is meant to reflect
// steady-state wire throughput, the quantity a long simulation sees.
const CYCLES: u64 = 6_000;
const BEST_OF: usize = 5;

/// Cluster-checkpoint cadence for the checkpointing-enabled variants:
/// the interval EXPERIMENTS.md prices (six barrier/snapshot/commit
/// rounds across the run). The overhead target is <5% vs the same
/// transport with checkpointing off. The attached-but-idle cockpit
/// variants share the same <5% target vs the unattached row.
const CKPT_INTERVAL: u64 = 1_000;

fn noc_4partition_design() -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let groups: Vec<PartitionGroup> = (0..3)
        .map(|g| PartitionGroup {
            name: format!("fpga{g}"),
            selection: Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: vec![2 * g, 2 * g + 1],
            },
            fame5: false,
        })
        .collect();
    (soc.circuit, PartitionSpec::exact(groups))
}

fn setup(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut registry = BehaviorRegistry::new();
    fireaxe::register_soc_behaviors(&mut registry);
    b.behaviors(registry)
}

fn run_threads(circuit: &Circuit, spec: &PartitionSpec) -> SimMetrics {
    let (_, mut sim) = FireAxe::new(circuit.clone(), spec.clone())
        .backend(Backend::Threads(0))
        .build()
        .unwrap();
    sim.run_target_cycles(CYCLES).unwrap()
}

/// One full cluster run over in-process worker threads (loopback
/// sockets carry every cross-partition token; the workers being
/// threads rather than subprocesses keeps the bench hermetic and
/// excludes process spawn cost, which is bring-up, not transport).
fn run_net(
    circuit: &Circuit,
    spec: &PartitionSpec,
    unix: bool,
    tag: usize,
    checkpoint_interval: u64,
) -> SimMetrics {
    let mut bound = Vec::new();
    let mut handles = Vec::new();
    for i in 0..4 {
        let addr = if unix {
            format!(
                "unix:{}/fxbench-{}-{tag}-{i}.sock",
                std::env::temp_dir().display(),
                std::process::id()
            )
        } else {
            "127.0.0.1:0".to_string()
        };
        let listener = NetListener::bind(&addr).expect("worker bind");
        bound.push(listener.local_addr_string());
        handles.push(std::thread::spawn(move || serve(&listener, &setup)));
    }
    let settings = WireSettings {
        checkpoint_interval,
        ..WireSettings::default()
    };
    let report =
        run_cluster(circuit, spec, CYCLES, &bound, &settings, 10_000, &setup).expect("cluster run");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    report.metrics
}

/// Same cluster run with the control plane up and one cockpit client
/// attached but idle — no Subscribe, no pause, just a live control
/// socket the coordinator polls at every relay round. This prices the
/// standing cost of being observable: the target is <5% vs the same
/// transport unattached.
fn run_net_attached(circuit: &Circuit, spec: &PartitionSpec, unix: bool, tag: usize) -> SimMetrics {
    let mut bound = Vec::new();
    let mut handles = Vec::new();
    for i in 0..4 {
        let addr = if unix {
            format!(
                "unix:{}/fxbench-{}-{tag}-{i}.sock",
                std::env::temp_dir().display(),
                std::process::id()
            )
        } else {
            "127.0.0.1:0".to_string()
        };
        let listener = NetListener::bind(&addr).expect("worker bind");
        bound.push(listener.local_addr_string());
        handles.push(std::thread::spawn(move || serve(&listener, &setup)));
    }
    let ctl_addr = if unix {
        format!(
            "unix:{}/fxbench-ctl-{}-{tag}.sock",
            std::env::temp_dir().display(),
            std::process::id()
        )
    } else {
        "127.0.0.1:0".to_string()
    };
    let control = NetListener::bind(&ctl_addr).expect("control bind");
    let attach_to = control.local_addr_string();
    let client = std::thread::spawn(move || {
        let mut stream =
            NetStream::connect(&attach_to, Duration::from_secs(10)).expect("attach connect");
        write_msg(
            &mut stream,
            &Msg::Attach {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
            },
        )
        .expect("attach send");
        // Idle until the coordinator closes the socket at end of run.
        while read_msg(&mut stream).expect("attach read").is_some() {}
    });
    let report = run_cluster_controlled(
        circuit,
        spec,
        CYCLES,
        &bound,
        &WireSettings::default(),
        10_000,
        &setup,
        RecoveryOptions::none(),
        Some(control),
    )
    .expect("cluster run");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    client.join().expect("attach client");
    report.metrics
}

/// Best-of-N timing of one variant: (cycles/s, ns/cycle, tokens/s).
fn measure(mut run: impl FnMut() -> SimMetrics) -> (f64, f64, f64) {
    let mut best_secs = f64::INFINITY;
    let mut tokens = 0u64;
    for _ in 0..BEST_OF {
        let t = Instant::now();
        let m = run();
        best_secs = best_secs.min(t.elapsed().as_secs_f64());
        tokens = m.link_tokens.iter().sum();
    }
    (
        CYCLES as f64 / best_secs,
        best_secs * 1e9 / CYCLES as f64,
        tokens as f64 / best_secs,
    )
}

fn transport_throughput(c: &mut Criterion) {
    let (circuit, spec) = noc_4partition_design();

    // Parity gate: every timed path must move the exact same per-link
    // token totals before any of them is timed.
    let threads_tokens = run_threads(&circuit, &spec).link_tokens;
    assert_eq!(
        threads_tokens,
        run_net(&circuit, &spec, false, 0, 0).link_tokens,
        "TCP cluster disagrees with Threads on link tokens"
    );
    assert_eq!(
        threads_tokens,
        run_net(&circuit, &spec, true, 1, 0).link_tokens,
        "Unix cluster disagrees with Threads on link tokens"
    );
    // Checkpointing reshapes the host-time schedule (barrier, snapshot,
    // commit every CKPT_INTERVAL cycles) but must not reshape traffic.
    for (ti, &unix) in [false, true].iter().enumerate() {
        assert_eq!(
            threads_tokens,
            run_net(&circuit, &spec, unix, 8 + ti, CKPT_INTERVAL).link_tokens,
            "checkpointing cluster (unix={unix}) disagrees with Threads on link tokens"
        );
    }
    // An attached cockpit client must be a pure observer: the control
    // plane may not perturb the token traffic.
    for (ti, &unix) in [false, true].iter().enumerate() {
        assert_eq!(
            threads_tokens,
            run_net_attached(&circuit, &spec, unix, 50 + ti).link_tokens,
            "attached cluster (unix={unix}) disagrees with Threads on link tokens"
        );
    }

    let mut g = c.benchmark_group("transport");
    g.sample_size(10);
    g.bench_function("threads_noc4", |bench| {
        bench.iter(|| black_box(run_threads(&circuit, &spec)))
    });
    g.bench_function("net_tcp_noc4", |bench| {
        bench.iter(|| black_box(run_net(&circuit, &spec, false, 10, 0)))
    });
    g.bench_function("net_unix_noc4", |bench| {
        bench.iter(|| black_box(run_net(&circuit, &spec, true, 11, 0)))
    });
    g.bench_function(&format!("net_unix_noc4_ckpt{CKPT_INTERVAL}"), |bench| {
        bench.iter(|| black_box(run_net(&circuit, &spec, true, 18, CKPT_INTERVAL)))
    });
    g.bench_function("net_unix_noc4_attached", |bench| {
        bench.iter(|| black_box(run_net_attached(&circuit, &spec, true, 19)))
    });
    g.finish();

    // Headline numbers, best of five, and the machine-readable summary.
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut base_rates = [0.0f64; 2];
    {
        let (rate, ns, tps) = measure(|| run_threads(&circuit, &spec));
        rows.push(("threads".to_string(), rate, ns, tps));
    }
    for (ti, &unix) in [false, true].iter().enumerate() {
        let transport = if unix { "unix" } else { "tcp" };
        let (rate, ns, tps) = measure(|| run_net(&circuit, &spec, unix, 20 + ti, 0));
        rows.push((format!("net_{transport}"), rate, ns, tps));
        base_rates[ti] = rate;
    }

    // Checkpointing priced against the same transport: the coordinated
    // barrier + snapshot + commit round every CKPT_INTERVAL cycles
    // should cost <5%.
    let mut overhead = [0.0f64; 2];
    for (ti, &unix) in [false, true].iter().enumerate() {
        let transport = if unix { "unix" } else { "tcp" };
        let base_rate = base_rates[ti];
        let (rate, ns, tps) = measure(|| run_net(&circuit, &spec, unix, 40 + ti, CKPT_INTERVAL));
        overhead[ti] = (base_rate - rate) / base_rate * 100.0;
        rows.push((format!("net_{transport}_ckpt"), rate, ns, tps));
        println!(
            "transport/net_{transport}_ckpt: checkpoint every {CKPT_INTERVAL} cycles costs \
             {:+.1}% vs checkpointing off",
            overhead[ti]
        );
    }

    // An attached-but-idle cockpit client priced against the same
    // transport: a live control socket with nothing
    // subscribed should cost <5%. Quoted as the *median of paired
    // ratios* — each attached run is ratioed against the unattached run
    // immediately before it, so machine-load drift (which hits both
    // members of a pair alike) cancels; a best-of-window comparison
    // against the sweep minutes earlier cannot tell a 10% control-plane
    // cost from a 10% load spike.
    const PAIRS: usize = 7;
    let mut attached = [0.0f64; 2];
    for (ti, &unix) in [false, true].iter().enumerate() {
        let transport = if unix { "unix" } else { "tcp" };
        let mut ratios = [0.0f64; PAIRS];
        let mut best_secs = f64::INFINITY;
        let mut tokens = 0u64;
        for r in &mut ratios {
            let t = Instant::now();
            run_net(&circuit, &spec, unix, 58 + ti, 0);
            let base = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let m = run_net_attached(&circuit, &spec, unix, 60 + ti);
            let secs = t.elapsed().as_secs_f64();
            *r = secs / base;
            if secs < best_secs {
                best_secs = secs;
                tokens = m.link_tokens.iter().sum();
            }
        }
        ratios.sort_by(f64::total_cmp);
        attached[ti] = (ratios[PAIRS / 2] - 1.0) * 100.0;
        rows.push((
            format!("net_{transport}_attached"),
            CYCLES as f64 / best_secs,
            best_secs * 1e9 / CYCLES as f64,
            tokens as f64 / best_secs,
        ));
        println!(
            "transport/net_{transport}_attached: idle cockpit client costs {:+.1}% vs unattached \
             (median of {PAIRS} paired runs)",
            attached[ti]
        );
    }

    let mut doc = String::from("{\n");
    doc.push_str(&format!(
        "  \"bench\": \"transports\",\n  \"cycles\": {CYCLES},\n"
    ));
    doc.push_str(&format!(
        "  \"checkpoint_interval\": {CKPT_INTERVAL},\n  \"checkpoint_overhead_pct\": \
         {{ \"net_tcp\": {:.1}, \"net_unix\": {:.1} }},\n",
        overhead[0], overhead[1]
    ));
    doc.push_str(&format!(
        "  \"attached_overhead_pct\": {{ \"net_tcp\": {:.1}, \"net_unix\": {:.1} }},\n",
        attached[0], attached[1]
    ));
    let n_rows = rows.len();
    for (i, (name, rate, ns_per_cycle, tokens_per_sec)) in rows.into_iter().enumerate() {
        println!(
            "transport/{name:<18} {rate:>12.0} target-cycles/s  \
             {ns_per_cycle:>10.0} ns/cycle  {tokens_per_sec:>12.0} tokens/s  (best of {BEST_OF})"
        );
        doc.push_str(&format!(
            "  \"{name}\": {{ \"cycles_per_sec\": {rate:.0}, \"ns_per_cycle\": {ns_per_cycle:.0}, \
             \"tokens_per_sec\": {tokens_per_sec:.0} }}{}\n",
            if i + 1 < n_rows { "," } else { "" }
        ));
    }
    doc.push_str("}\n");
    // cargo runs benches with the package dir as cwd; anchor the output
    // at the workspace root next to the other BENCH_*.json files.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(out, &doc).expect("write BENCH_net.json");
    println!("wrote BENCH_net.json");
}

criterion_group!(benches, transport_throughput);
criterion_main!(benches);
