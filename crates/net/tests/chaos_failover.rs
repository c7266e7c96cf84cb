//! Chaos harness for coordinated checkpointing + automatic failover:
//! a 4-partition cluster whose worker is killed cold mid-run (socket
//! dropped with no `Fatal`, exactly like a crash) must be respawned,
//! rewound to the last cluster checkpoint, and finish with the same
//! sampled `(cycle, state_digest)` rows and byte-identical VCD as the
//! undisturbed DES golden model — on both transports, for randomized
//! kill schedules. Exhausting the
//! restart budget must degrade to the typed `PartitionLost`, and
//! multi-worker silence must name every silent worker, not just the
//! first.

mod common;

use common::{
    des_reference, listen_addrs, noc_4partition_design, observed_settings, setup_hook,
    spawn_workers_with, CYCLES,
};
use fireaxe_net::{
    run_cluster_with, NetListener, NetRunReport, RecoveryOptions, WireSettings, WorkerOptions,
};
use fireaxe_sim::{ObsReport, Result, SimError, SimMetrics};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Checkpoint every 100 of the 600 test cycles: several barriers per
/// run, so most kill points rewind to a nonzero checkpoint (kills
/// before cycle 100 exercise the implicit cycle-0 checkpoint).
const CKPT_INTERVAL: u64 = 100;

fn chaos_settings() -> WireSettings {
    WireSettings {
        checkpoint_interval: CKPT_INTERVAL,
        ..observed_settings()
    }
}

/// The handles of every serve thread spawned over a run's lifetime —
/// initial workers and respawned replacements alike.
type HandlePool = Arc<Mutex<Vec<(usize, JoinHandle<Result<()>>)>>>;

/// A respawn factory backed by in-process serve threads: each call
/// binds a fresh listener (fresh socket path on Unix — the dead
/// worker's listener died with its thread) and serves one session with
/// `replacement_opts`.
fn thread_respawn(
    unix: bool,
    label: String,
    pool: HandlePool,
    replacement_opts: WorkerOptions,
) -> fireaxe_net::RespawnFn {
    let count = AtomicUsize::new(0);
    Box::new(move |i| {
        let n = count.fetch_add(1, Ordering::Relaxed);
        let addr = if unix {
            format!(
                "unix:{}/fxnet-{}-{label}-r{n}.sock",
                std::env::temp_dir().display(),
                std::process::id()
            )
        } else {
            "127.0.0.1:0".to_string()
        };
        let listener = NetListener::bind(&addr).expect("replacement bind");
        let bound = listener.local_addr_string();
        let opts = replacement_opts.clone();
        let handle = std::thread::spawn(move || serve_with_hook(&listener, &opts));
        pool.lock().unwrap().push((i, handle));
        Ok(bound)
    })
}

fn serve_with_hook(listener: &NetListener, opts: &WorkerOptions) -> Result<()> {
    fireaxe_net::serve_with(listener, &setup_hook, opts)
}

/// Runs the cluster with worker `victim` set to die at `kill_cycle`,
/// failover armed (`max_restarts`), and replacements configured by
/// `replacement_opts` (default = healthy). Returns the coordinator's
/// report; every serve thread is joined and its exit checked: chaos
/// victims must report the injected death, everyone else must exit
/// cleanly.
fn run_chaos(
    unix: bool,
    label: &str,
    victim: usize,
    kill_cycle: u64,
    max_restarts: u32,
    replacement_opts: WorkerOptions,
) -> Result<NetRunReport> {
    run_chaos_on(
        4,
        unix,
        label,
        victim,
        kill_cycle,
        max_restarts,
        replacement_opts,
    )
}

/// [`run_chaos`] with the 4 partitions packed onto `n_workers` workers.
fn run_chaos_on(
    n_workers: usize,
    unix: bool,
    label: &str,
    victim: usize,
    kill_cycle: u64,
    max_restarts: u32,
    replacement_opts: WorkerOptions,
) -> Result<NetRunReport> {
    let (circuit, spec) = noc_4partition_design();
    let addrs = listen_addrs(n_workers, unix, label);
    let mut options = vec![WorkerOptions::default(); n_workers];
    options[victim].chaos_kill = Some(kill_cycle);
    let (bound, handles) = spawn_workers_with(&addrs, &options);

    let pool: HandlePool = Arc::new(Mutex::new(
        handles.into_iter().enumerate().collect::<Vec<_>>(),
    ));
    let chaotic_replacements = replacement_opts.chaos_kill.is_some();
    let recovery = RecoveryOptions {
        max_restarts,
        restart_backoff: Duration::from_millis(5),
        respawn: Some(thread_respawn(
            unix,
            label.to_string(),
            Arc::clone(&pool),
            replacement_opts,
        )),
    };
    let result = run_cluster_with(
        &circuit,
        &spec,
        CYCLES,
        &bound,
        &chaos_settings(),
        10_000,
        &setup_hook,
        recovery,
    );

    let handles = std::mem::take(&mut *pool.lock().unwrap());
    for (i, h) in handles {
        let exit = h.join().expect("worker thread panicked");
        let chaotic = i == victim && (chaotic_replacements || exit.is_err());
        match exit {
            Ok(()) => assert!(
                !chaotic || !chaotic_replacements,
                "worker {i} was armed to die every life but exited cleanly"
            ),
            Err(SimError::Config { ref message }) if message.contains("chaos") => {
                assert!(chaotic, "uninjected worker {i} died of chaos: {message}");
            }
            Err(e) => {
                // Once the coordinator has given the run up (restart
                // budget exhausted), survivors die of the torn-down
                // sockets — only then is a non-chaos exit acceptable.
                assert!(
                    result.is_err(),
                    "worker {i} failed during a successful run: {e}"
                );
            }
        }
    }
    result
}

/// Sampled `(cycle, state_digest)` rows, node by node.
fn digests(obs: &fireaxe_obs::MetricsSeries) -> Vec<(String, Vec<(u64, u64)>)> {
    obs.nodes
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

/// The undisturbed golden: the DES model under the same observation
/// settings. `distributed_parity` already proves an undisturbed cluster
/// matches it bit for bit, so recovered-run == DES implies
/// recovered-run == undisturbed-run. Cached: chaos must not change it.
fn golden() -> &'static (SimMetrics, ObsReport) {
    static GOLDEN: OnceLock<(SimMetrics, ObsReport)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let (circuit, spec) = noc_4partition_design();
        des_reference(&circuit, &spec, &chaos_settings())
    })
}

fn assert_recovered_parity(net: &NetRunReport, expect_recovery: bool) {
    let (des_metrics, des_obs) = golden();
    if expect_recovery {
        assert!(
            !net.recoveries.is_empty(),
            "the kill was scheduled inside the run but no recovery happened"
        );
        for r in &net.recoveries {
            assert!(
                r.rewind_cycle <= r.detected_cycle,
                "rewound forwards: {r:?}"
            );
            assert_eq!(
                r.rewind_cycle % CKPT_INTERVAL,
                0,
                "off-barrier rewind {r:?}"
            );
            // Visible under --nocapture; EXPERIMENTS.md quotes these.
            println!(
                "recovery: worker {} partitions {:?} restart {} detected@{} rewind@{} in {} ms",
                r.worker, r.partitions, r.restart, r.detected_cycle, r.rewind_cycle, r.recovery_ms
            );
        }
    }
    assert_eq!(
        digests(&net.series),
        digests(&des_obs.metrics),
        "recovered run's state digests diverged from the undisturbed golden"
    );
    let net_vcd = net.vcd.as_deref().expect("net VCD missing");
    let des_vcd = des_obs.vcd.as_deref().expect("DES VCD missing");
    assert!(!net_vcd.is_empty());
    assert_eq!(net_vcd, des_vcd, "recovered run's VCD diverged");
    assert_eq!(net.metrics.target_cycles, CYCLES);
    assert_eq!(
        net.metrics.link_tokens, des_metrics.link_tokens,
        "per-link token totals diverged"
    );
}

/// Checkpointing with nobody dying must be invisible in target state:
/// the barriers, snapshots, and acks ride the same wire as tokens, and
/// none of it may perturb the simulation.
#[test]
fn checkpointing_alone_is_invisible_in_target_state() {
    let net = run_chaos(
        true,
        "ckpt-clean",
        0,
        CYCLES + 1, // never fires
        2,
        WorkerOptions::default(),
    )
    .expect("clean checkpointing run");
    assert!(net.recoveries.is_empty(), "nothing died, nothing recovers");
    assert_recovered_parity(&net, false);
}

#[test]
fn tcp_cluster_survives_a_mid_run_worker_kill() {
    let net =
        run_chaos(false, "kill-tcp", 1, 233, 2, WorkerOptions::default()).expect("recovered run");
    assert_recovered_parity(&net, true);
}

#[test]
fn unix_cluster_survives_a_mid_run_worker_kill() {
    let net =
        run_chaos(true, "kill-unix", 2, 233, 2, WorkerOptions::default()).expect("recovered run");
    assert_recovered_parity(&net, true);
}

/// A kill before the first checkpoint barrier rewinds the cluster to
/// the implicit cycle-0 checkpoint and still finishes bit-exactly.
#[test]
fn kill_before_the_first_checkpoint_rewinds_to_cycle_zero() {
    let net =
        run_chaos(true, "kill-early", 3, 42, 2, WorkerOptions::default()).expect("recovered run");
    assert!(net.recoveries.iter().any(|r| r.rewind_cycle == 0));
    assert_recovered_parity(&net, true);
}

/// Two workers hosting two partitions each: killing one mid-run takes
/// both of its partitions down, and its replacement rebuilds both and
/// adopts its predecessor's two-partition checkpoint, bit-exactly.
#[test]
fn a_packed_worker_kill_recovers_both_of_its_partitions() {
    let net = run_chaos_on(2, true, "kill-packed", 1, 233, 2, WorkerOptions::default())
        .expect("recovered run");
    assert_eq!(net.recoveries.len(), 1, "{:?}", net.recoveries);
    let r = &net.recoveries[0];
    assert_eq!(
        (r.worker, r.partitions.as_slice()),
        (1, &[2, 3][..]),
        "names the dead worker and both of its partitions"
    );
    assert_eq!(r.rewind_cycle, 200, "rewinds to a two-partition checkpoint");
    assert_recovered_parity(&net, true);
}

proptest! {
    // Each case is a full 4-worker cluster run plus a recovery; a
    // handful of randomized schedules per CI run keeps the suite fast
    // while the matrix (transport x kill point x victim) stays
    // genuinely randomized.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance: randomized kill schedules recover bit-exactly on
    /// both transports.
    #[test]
    fn randomized_kill_schedules_recover_bit_exactly(
        unix in any::<bool>(),
        victim in 0usize..4,
        kill_cycle in 1u64..CYCLES,
    ) {
        let label = format!("prop-{victim}-{kill_cycle}");
        let net = run_chaos(
            unix, &label, victim, kill_cycle, 2, WorkerOptions::default(),
        ).expect("recovered run");
        assert_recovered_parity(&net, true);
    }
}

/// A partition whose worker dies on every life exhausts `max_restarts`
/// and degrades to the typed `PartitionLost` naming it — not a hang,
/// not a generic disconnect.
#[test]
fn exceeding_max_restarts_degrades_to_partition_lost() {
    let always_dies = WorkerOptions {
        chaos_kill: Some(150),
        ..WorkerOptions::default()
    };
    let err = run_chaos(true, "kill-budget", 1, 150, 1, always_dies)
        .expect_err("a worker dying every life must fail the run");
    match err {
        SimError::PartitionLost {
            partition,
            restarts,
            ref report,
            ..
        } => {
            assert_eq!(partition, 1, "wrong partition named");
            assert_eq!(restarts, 1, "restart budget miscounted");
            assert!(
                !report.nodes.is_empty(),
                "PartitionLost must carry stall forensics"
            );
        }
        other => panic!("expected PartitionLost, got {other}"),
    }
}
