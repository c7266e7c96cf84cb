//! Deterministic fault matrix: fixed seeds × fault kinds × both
//! backends, each cell asserting that a recovered fault-injected run
//! ends bit-identical to the fault-free DES golden run — plus
//! process-kill cells on the distributed backend, where a worker's
//! socket is dropped cold mid-run and the coordinated checkpoint +
//! failover machinery (DESIGN.md §8) must rewind, respawn, and finish
//! bit-identical anyway.
//!
//! This is the CI-facing version of the `fault_recovery` property suite:
//! no randomness, a fixed list of campaigns, table output, and a
//! non-zero exit code on any parity mismatch — so a regression in the
//! reliability protocol or checkpoint/rollback recovery fails the build
//! even if the unit suites are skipped.
//!
//! `--sliced` runs the batch-of-seeds cells instead: same-topology,
//! different-seed scenarios of the 6-tile ring packed into the lanes of
//! one bit-sliced interpreter (`fireaxe_sim::BatchRun`), every lane
//! digest cross-checked against an independent sequential
//! compiled-engine run of the same seed.

use fireaxe::net::{
    run_cluster_with, serve_with, NetListener, RecoveryOptions, WireSettings, WorkerOptions,
};
use fireaxe::prelude::*;
use fireaxe::sim::{BehaviorRegistry, ObsSpec, SimBuilder};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CYCLES: u64 = 300;
const SEEDS: [u64; 3] = [1, 42, 0xF1AE];
const CHECKPOINT_INTERVAL: u64 = 32;
const MAX_ROLLBACKS: u32 = 16;

/// Process-kill cells: `(victim partition, kill cycle)`. One kill
/// before the first cluster checkpoint (rewinds to the implicit cycle-0
/// checkpoint), one mid-run, one late; each runs on both transports.
const KILL_CELLS: [(usize, u64); 3] = [(1, 17), (2, 150), (3, 233)];

fn noc_design() -> (Circuit, PartitionSpec) {
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

/// The campaign for one matrix cell: a single fault kind at a rate high
/// enough to exercise the protocol constantly, or a transient outage
/// long enough to force rollback, or everything at once.
fn campaign(kind: &str, seed: u64) -> FaultSpec {
    let quiet = FaultSpec::quiet(seed);
    match kind {
        "drop" => FaultSpec {
            drop_per_mille: 150,
            ..quiet
        },
        "corrupt" => FaultSpec {
            corrupt_per_mille: 150,
            ..quiet
        },
        "duplicate" => FaultSpec {
            duplicate_per_mille: 150,
            ..quiet
        },
        "stall" => FaultSpec {
            stall_per_mille: 100,
            max_stall_quanta: 3,
            ..quiet
        },
        "outage" => FaultSpec {
            down: vec![(5, 25)],
            down_link: Some(0),
            ..quiet
        },
        "mix" => FaultSpec {
            drop_per_mille: 60,
            corrupt_per_mille: 60,
            duplicate_per_mille: 60,
            stall_per_mille: 40,
            max_stall_quanta: 2,
            down: vec![(10, 22)],
            down_link: Some(1),
            ..quiet
        },
        other => unreachable!("unknown fault kind {other}"),
    }
}

/// Final target-visible state: every node's completed cycle count and
/// output-port values.
type Fingerprint = Vec<(usize, String, u64, u64)>;

fn run(
    circuit: &Circuit,
    spec: &PartitionSpec,
    backend: Backend,
    faults: Option<FaultSpec>,
) -> Result<(Fingerprint, u64), SimError> {
    let mut flow = fireaxe::FireAxe::new(circuit.clone(), spec.clone()).backend(backend);
    if let Some(fs) = faults {
        flow = flow
            .fault_spec(fs)
            .retry_policy(RetryPolicy {
                max_retries: 6,
                timeout_cycles: 8,
            })
            .checkpoint_interval(CHECKPOINT_INTERVAL)
            .max_rollbacks(MAX_ROLLBACKS);
    }
    let (_, mut sim) = flow.build().map_err(|e| match e {
        FlowError::Sim(e) => e,
        other => panic!("flow setup failed: {other}"),
    })?;
    sim.run_target_cycles_recovering(CYCLES)?;
    let rollbacks = sim.rollbacks_taken();
    let mut fp = Vec::new();
    for ni in 0..sim.node_names().len() {
        let cycles = sim.node_target_cycles(ni);
        let t = sim.target(ni);
        for (port, _) in t.output_ports() {
            fp.push((ni, port.clone(), t.peek(&port).to_u64(), cycles));
        }
    }
    Ok((fp, rollbacks))
}

/// Sampled `(cycle, state_digest)` rows, node by node: the observation
/// fingerprint the process-kill cells compare (the net backend exposes
/// no live `sim` to peek ports on after the run).
type ObsRows = Vec<(String, Vec<(u64, u64)>)>;

fn obs_rows(series: &fireaxe::obs::MetricsSeries) -> ObsRows {
    series
        .nodes
        .iter()
        .map(|n| {
            (
                n.node.clone(),
                n.samples
                    .iter()
                    .map(|s| (s.cycle, s.state_digest))
                    .collect(),
            )
        })
        .collect()
}

/// The behavior hook every worker (and the golden reference) applies.
fn net_setup(b: SimBuilder<'_>) -> SimBuilder<'_> {
    let mut r = BehaviorRegistry::new();
    fireaxe::register_soc_behaviors(&mut r);
    b.behaviors(r)
}

/// Wire settings for the kill cells: observation on (the parity
/// evidence), cluster checkpoints at the matrix's usual cadence.
fn kill_settings() -> WireSettings {
    WireSettings {
        sample_interval: 50,
        vcd: true,
        io_timeout_ms: 30_000,
        checkpoint_interval: CHECKPOINT_INTERVAL,
        ..Default::default()
    }
}

/// The undisturbed golden for the kill cells: the DES model under the
/// same design and observation settings.
fn des_observed_golden(circuit: &Circuit, spec: &PartitionSpec) -> (ObsRows, String) {
    let s = kill_settings();
    let design = fireaxe::ripper::compile(circuit, spec).expect("golden compile");
    let builder = SimBuilder::new(&design)
        .backend(Backend::Des)
        .observe(ObsSpec {
            sample_interval: s.sample_interval,
            vcd: s.vcd,
            signals: s.signals.clone(),
        });
    let mut sim = net_setup(builder).build().expect("golden build");
    sim.run_target_cycles(CYCLES).expect("golden run");
    let obs = sim.obs_report();
    (obs_rows(&obs.metrics), obs.vcd.expect("golden VCD"))
}

/// One process-kill cell: a hermetic 4-worker in-thread cluster (the
/// same shape as `crates/net/tests/chaos_failover.rs`) whose `victim`
/// drops its socket cold at `kill_cycle` — no `Fatal`, exactly like a
/// crash — with failover armed. Returns the observation rows, the VCD,
/// and how many recoveries the coordinator performed.
fn run_kill_cell(
    circuit: &Circuit,
    spec: &PartitionSpec,
    unix: bool,
    label: &str,
    victim: usize,
    kill_cycle: u64,
) -> Result<(ObsRows, String, usize), SimError> {
    let mut bound = Vec::new();
    let pool = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4 {
        let addr = if unix {
            format!(
                "unix:{}/fxmatrix-{}-{label}-{i}.sock",
                std::env::temp_dir().display(),
                std::process::id()
            )
        } else {
            "127.0.0.1:0".to_string()
        };
        let listener = NetListener::bind(&addr).expect("worker bind");
        bound.push(listener.local_addr_string());
        let opts = WorkerOptions {
            chaos_kill: (i == victim).then_some(kill_cycle),
            ..WorkerOptions::default()
        };
        pool.lock().unwrap().push((
            i,
            std::thread::spawn(move || serve_with(&listener, &net_setup, &opts)),
        ));
    }

    let respawn_pool = Arc::clone(&pool);
    let label_owned = label.to_string();
    let count = AtomicUsize::new(0);
    let recovery = RecoveryOptions {
        max_restarts: 2,
        restart_backoff: Duration::from_millis(5),
        respawn: Some(Box::new(move |i| {
            let n = count.fetch_add(1, Ordering::Relaxed);
            let addr = if unix {
                format!(
                    "unix:{}/fxmatrix-{}-{label_owned}-r{n}.sock",
                    std::env::temp_dir().display(),
                    std::process::id()
                )
            } else {
                "127.0.0.1:0".to_string()
            };
            let listener = NetListener::bind(&addr).expect("replacement bind");
            let bound = listener.local_addr_string();
            respawn_pool.lock().unwrap().push((
                i,
                std::thread::spawn(move || {
                    serve_with(&listener, &net_setup, &WorkerOptions::default())
                }),
            ));
            Ok(bound)
        })),
    };

    let result = run_cluster_with(
        circuit,
        spec,
        CYCLES,
        &bound,
        &kill_settings(),
        10_000,
        &net_setup,
        recovery,
    );

    let handles = std::mem::take(&mut *pool.lock().unwrap());
    for (i, h) in handles {
        match h.join().expect("worker thread panicked") {
            Ok(()) => {}
            Err(SimError::Config { ref message }) if message.contains("chaos") => {
                assert_eq!(i, victim, "uninjected worker {i} died of chaos");
            }
            Err(e) => {
                assert!(
                    result.is_err(),
                    "worker {i} failed in a successful run: {e}"
                );
            }
        }
    }
    let report = result?;
    let vcd = report.vcd.clone().expect("net VCD missing");
    Ok((obs_rows(&report.series), vcd, report.recoveries.len()))
}

/// Batch-of-seeds cells: the fixed matrix seeds plus splitmix-derived
/// fill so one sliced batch carries a non-trivial lane count.
fn sliced_seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = SEEDS.to_vec();
    for i in 0..13u64 {
        let mut z = 0xF1AE_u64.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        seeds.push(z ^ (z >> 31));
    }
    seeds
}

/// The `--sliced` cells: every seed becomes one lane of a single
/// bit-sliced batch over the monolithic 6-tile ring (same topology as
/// the transport matrix), behaviors seeded per lane via the models'
/// `seed` key parameter. Verify mode inside `BatchRun` replays each
/// lane sequentially on the compiled engine and cross-checks digests, so
/// a miscompiled lane kernel (or an impure behavioral model) fails the
/// build exactly like a transport-parity mismatch.
fn run_sliced_cells() -> u32 {
    use fireaxe::sim::{BatchRun, BatchScenario};

    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period: 4,
        ..Default::default()
    });
    let seeds = sliced_seeds();
    let scenarios: Vec<BatchScenario> = seeds
        .iter()
        .map(|&s| BatchScenario::new(format!("ring6/seed{s:x}"), s))
        .collect();
    let run = BatchRun::new(soc.circuit, CYCLES)
        .verify(true)
        .behaviors(|key, path, seed| {
            let sep = if key.contains('?') { '&' } else { '?' };
            fireaxe::soc::make_behavior(&format!("{key}{sep}seed={seed}"), path)
        });

    println!(
        "== Sliced seed matrix: {CYCLES} cycles, {} lanes ==\n",
        seeds.len()
    );
    println!(
        "{:<20} {:>6} {:>6}  {:<18}  result",
        "cell", "seed", "lane", "digest"
    );
    let report = match run.run(&scenarios, |_scn, _cycle, _sink| {}) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("  error: {e}");
            return 1;
        }
    };
    let mut failures = 0u32;
    for r in &report.results {
        let verdict = if r.verified { "ok" } else { "UNVERIFIED" };
        if !r.verified {
            failures += 1;
        }
        println!(
            "{:<20} {:>6x} {:>6}  {:#018x}  {verdict}",
            r.name,
            r.seed,
            r.lane.map_or_else(|| "seq".to_string(), |l| l.to_string()),
            r.digest,
        );
    }
    // Different seeds must actually steer the models: if every lane
    // landed on one digest the `seed` key parameter is dead and these
    // cells test nothing.
    let mut digests: Vec<u64> = report.results.iter().map(|r| r.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    if digests.len() < 2 {
        eprintln!(
            "  error: all {} lanes share one digest — seeds had no effect",
            seeds.len()
        );
        failures += 1;
    }
    println!(
        "\n{} lane(s) in {} sliced batch(es), {} sequential; {} distinct digest(s)",
        report.sliced_lanes,
        report.sliced_batches,
        report.sequential_runs,
        digests.len()
    );
    failures
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--sliced") {
        let failures = run_sliced_cells();
        if failures > 0 {
            eprintln!("\n{failures} sliced cell(s) failed");
            return ExitCode::FAILURE;
        }
        println!("every lane matches its independent sequential replay");
        return ExitCode::SUCCESS;
    }
    let (circuit, spec) = noc_design();
    let (golden, _) =
        run(&circuit, &spec, Backend::Des, None).expect("fault-free golden run failed");

    println!("== Fault matrix: {CYCLES} cycles, golden = fault-free DES ==\n");
    println!(
        "{:<10} {:>8}  {:<11} {:>9}  result",
        "kind", "seed", "backend", "rollbacks"
    );
    let mut failures = 0u32;
    for kind in ["drop", "corrupt", "duplicate", "stall", "outage", "mix"] {
        for seed in SEEDS {
            for backend in [Backend::Des, Backend::Threads(0)] {
                let cell = run(&circuit, &spec, backend, Some(campaign(kind, seed)));
                let verdict = match cell {
                    Ok((ref fp, _)) if *fp == golden => "ok",
                    Ok(_) => {
                        failures += 1;
                        "PARITY MISMATCH"
                    }
                    Err(ref e) => {
                        failures += 1;
                        eprintln!("  error: {e}");
                        "FAILED"
                    }
                };
                let rollbacks = cell.as_ref().map(|&(_, r)| r).unwrap_or(0);
                println!(
                    "{kind:<10} {seed:>8}  {:<11} {rollbacks:>9}  {verdict}",
                    format!("{backend:?}"),
                );
            }
        }
    }
    // Process-kill cells: the distributed backend with one worker
    // killed cold mid-run (socket dropped, no farewell) and the
    // checkpoint + failover machinery armed. Parity evidence is the
    // sampled digest rows and the VCD vs. the undisturbed DES golden;
    // a cell that "passes" without actually recovering is a failure
    // too — it would mean the kill never happened.
    println!(
        "\n{:<10} {:>8}  {:<11} {:>9}  result",
        "kind", "kill@", "transport", "recovered"
    );
    let (g_rows, g_vcd) = des_observed_golden(&circuit, &spec);
    for (ci, &(victim, kill_cycle)) in KILL_CELLS.iter().enumerate() {
        for &unix in &[false, true] {
            let transport = if unix { "unix" } else { "tcp" };
            let label = format!("k{ci}{transport}");
            let cell = run_kill_cell(&circuit, &spec, unix, &label, victim, kill_cycle);
            let (verdict, recovered) = match cell {
                Ok((rows, vcd, rec)) => {
                    if rows == g_rows && vcd == g_vcd && rec > 0 {
                        ("ok", rec)
                    } else {
                        failures += 1;
                        (
                            if rec == 0 {
                                "NO RECOVERY"
                            } else {
                                "PARITY MISMATCH"
                            },
                            rec,
                        )
                    }
                }
                Err(ref e) => {
                    failures += 1;
                    eprintln!("  error: {e}");
                    ("FAILED", 0)
                }
            };
            println!(
                "{:<10} {kill_cycle:>8}  {transport:<11} {recovered:>9}  {verdict}",
                "kill"
            );
        }
    }

    if failures > 0 {
        eprintln!("\n{failures} cell(s) failed");
        return ExitCode::FAILURE;
    }
    println!("\nall cells bit-identical to the fault-free golden run");
    ExitCode::SUCCESS
}
