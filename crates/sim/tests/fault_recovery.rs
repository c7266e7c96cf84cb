//! The keystone robustness property: **recoverable fault campaigns are
//! invisible to target state**.
//!
//! For randomized fault schedules (drops, bit-flips, duplicates,
//! transient stalls, finite link-down windows), a simulation run under
//! the reliability protocol — with checkpoint/rollback recovery armed —
//! must finish with target-visible state *bit-identical* to the
//! fault-free discrete-event golden run, on **both** backends. This is
//! the LI-BDN transparency argument made executable: the protocol
//! delivers the exact sent token sequence in per-channel order no matter
//! what the wire does, so target registers and environment traces cannot
//! tell a noisy link from a clean one.
//!
//! Unrecoverable failures must *not* hang or panic: a permanently-down
//! link escalates to a structured [`SimError::LinkDown`] whose
//! [`StallReport`] names each node's stalled cycle, per-channel input
//! credit, tokens in flight, and the fault events preceding the stall.

use fireaxe_ir::build::ModuleBuilder;
use fireaxe_ir::{Bits, Circuit};
use fireaxe_ripper::{
    compile, ChannelPolicy, PartitionGroup, PartitionMode, PartitionSpec, PartitionedDesign,
};
use fireaxe_sim::{Backend, DistributedSim, ObsSpec, ScriptBridge, SimBuilder, SimError};
use fireaxe_transport::fault::FaultSpec;
use fireaxe_transport::reliable::RetryPolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A two-partition SoC with feedback: a hub register XORs environment
/// stimulus with the tile's response, so any lost, reordered, corrupted,
/// or duplicated token corrupts every subsequent target cycle — the
/// harshest possible witness for reliability-layer transparency.
fn soc() -> Circuit {
    let mut tile = ModuleBuilder::new("Tile");
    let req = tile.input("req", 8);
    let rsp = tile.output("rsp", 8);
    let acc = tile.reg("acc", 8, 0);
    tile.connect_sig(&acc, &acc.add(&req));
    tile.connect_sig(&rsp, &acc.add(&req));
    let tile = tile.finish();

    let mut top = ModuleBuilder::new("Soc");
    let i = top.input("i", 8);
    let o = top.output("o", 8);
    top.inst("tile0", "Tile");
    let hub = top.reg("hub", 8, 1);
    top.connect_inst("tile0", "req", &hub);
    let rsp = top.inst_port("tile0", "rsp");
    top.connect_sig(&hub, &rsp.xor(&i));
    top.connect_sig(&o, &hub);
    Circuit::from_modules("Soc", vec![top.finish(), tile], "Soc")
}

fn spec() -> PartitionSpec {
    PartitionSpec {
        mode: PartitionMode::Exact,
        channel_policy: ChannelPolicy::Separated,
        groups: vec![PartitionGroup::instances("tile", vec!["tile0".into()])],
    }
}

fn stimulus(cycle: u64) -> BTreeMap<String, Bits> {
    let mut m = BTreeMap::new();
    m.insert("i".to_string(), Bits::from_u64(cycle % 251, 8));
    m
}

/// Final target-visible state: the recorded environment output trace,
/// each node's completed cycle count, and every output-port value.
type Fingerprint = (Vec<(u64, u64)>, Vec<u64>, Vec<(usize, String, u64)>);

/// The fixture under one case's knobs: optional fault injection, the
/// recovery settings, what to observe, and the LI-BDN channel capacity
/// when non-zero — the in-process runahead window, the same depth the
/// net backend deepens its queues to (its credit window).
fn build_sim(
    design: &PartitionedDesign,
    backend: Backend,
    faults: Option<(FaultSpec, RetryPolicy)>,
    checkpoint_interval: u64,
    max_rollbacks: u32,
    capacity: usize,
    obs: ObsSpec,
) -> DistributedSim {
    let rest = design.node_index(1, 0);
    let mut b = SimBuilder::new(design)
        .backend(backend)
        .bridge(rest, Box::new(ScriptBridge::new(stimulus).recording()))
        .checkpoint_interval(checkpoint_interval)
        .max_rollbacks(max_rollbacks)
        .observe(obs);
    if capacity > 0 {
        b = b.channel_capacity(capacity);
    }
    if let Some((spec, policy)) = faults {
        b = b.fault_spec(spec).retry_policy(policy);
    }
    b.build().unwrap()
}

/// Runs `cycles` on [`build_sim`]'s fixture, returning the
/// target-visible fingerprint (plus rollbacks taken).
fn run_fingerprint_at_capacity(
    backend: Backend,
    cycles: u64,
    faults: Option<(FaultSpec, RetryPolicy)>,
    checkpoint_interval: u64,
    max_rollbacks: u32,
    capacity: usize,
) -> Result<(Fingerprint, u64), SimError> {
    let design = compile(&soc(), &spec()).unwrap();
    let rest = design.node_index(1, 0);
    let mut sim = build_sim(
        &design,
        backend,
        faults,
        checkpoint_interval,
        max_rollbacks,
        capacity,
        ObsSpec::default(),
    );
    sim.run_target_cycles_recovering(cycles)?;
    let rollbacks = sim.rollbacks_taken();
    let cycles_done: Vec<u64> = (0..design.node_count())
        .map(|ni| sim.node_target_cycles(ni))
        .collect();
    let mut ports = Vec::new();
    for ni in 0..design.node_count() {
        let t = sim.target(ni);
        for (port, _) in t.output_ports() {
            ports.push((ni, port.clone(), t.peek(&port).to_u64()));
        }
    }
    let b = sim
        .bridge_mut(rest)
        .as_any()
        .downcast_mut::<ScriptBridge>()
        .unwrap();
    let mut trace: Vec<(u64, u64)> = b
        .log()
        .iter()
        .filter_map(|r| r.values.get("o").map(|v| (r.cycle, v.to_u64())))
        .collect();
    trace.sort_unstable();
    Ok(((trace, cycles_done, ports), rollbacks))
}

/// [`run_fingerprint_at_capacity`] at the default channel capacity.
fn run_fingerprint(
    backend: Backend,
    cycles: u64,
    faults: Option<(FaultSpec, RetryPolicy)>,
    checkpoint_interval: u64,
    max_rollbacks: u32,
) -> Result<(Fingerprint, u64), SimError> {
    run_fingerprint_at_capacity(
        backend,
        cycles,
        faults,
        checkpoint_interval,
        max_rollbacks,
        0,
    )
}

/// Strategy over *recoverable* fault campaigns: independent per-mille
/// rates for each transient fault kind, plus an optional finite
/// link-down window early in the attempt stream.
fn recoverable_faults() -> impl Strategy<Value = FaultSpec> {
    (
        (any::<u64>(), 0u16..151, 0u16..151, 0u16..151),
        (0u16..101, 1u32..4, 0u64..3, 0u64..16),
    )
        .prop_map(
            |((seed, drop, corrupt, duplicate), (stall, quanta, down_start, down_len))| FaultSpec {
                drop_per_mille: drop,
                corrupt_per_mille: corrupt,
                duplicate_per_mille: duplicate,
                stall_per_mille: stall,
                max_stall_quanta: quanta,
                down: if down_len > 0 {
                    vec![(down_start, down_start + down_len)]
                } else {
                    Vec::new()
                },
                down_link: Some(0),
                ..FaultSpec::quiet(seed)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// The keystone: random recoverable fault schedules leave both
    /// backends bit-identical to the fault-free DES golden run — at
    /// every runahead window. Sweeping the channel capacity over
    /// {1, 8, 64} (lockstep, a middle depth, a full credit window)
    /// proves pacing is invisible in target state even composed with
    /// faults and rollback recovery.
    #[test]
    fn recoverable_fault_runs_match_faultfree_golden(
        spec in recoverable_faults(),
        interval in 4u64..33,
        cycles in 20u64..41,
    ) {
        let policy = RetryPolicy { max_retries: 8, timeout_cycles: 8 };
        let (golden, _) = run_fingerprint(Backend::Des, cycles, None, 0, 0)
            .expect("fault-free golden run");
        for backend in [Backend::Des, Backend::Threads(0)] {
            for capacity in [1usize, 8, 64] {
                let (got, _) = run_fingerprint_at_capacity(
                    backend,
                    cycles,
                    Some((spec.clone(), policy)),
                    interval,
                    16,
                    capacity,
                )
                .unwrap_or_else(|e| {
                    panic!("{backend:?} (capacity {capacity}) failed to recover: {e}")
                });
                prop_assert!(
                    got == golden,
                    "{:?} at channel capacity {} diverged from golden under faults {:?}",
                    backend,
                    capacity,
                    &spec
                );
            }
        }
    }
}

/// A link that never comes back up must surface as a structured
/// `LinkDown` — populated forensics, no hang — on both backends.
#[test]
fn permanent_link_down_reports_structured_forensics() {
    let spec = FaultSpec {
        down: vec![(0, u64::MAX)],
        down_link: Some(0),
        ..FaultSpec::quiet(42)
    };
    let policy = RetryPolicy {
        max_retries: 3,
        timeout_cycles: 4,
    };
    for backend in [Backend::Des, Backend::Threads(0)] {
        let err = run_fingerprint(backend, 20, Some((spec.clone(), policy)), 0, 0)
            .expect_err("a permanently-down link cannot complete");
        match err {
            SimError::LinkDown {
                link,
                attempts,
                report,
            } => {
                assert_eq!(link, 0, "{backend:?}");
                assert_eq!(attempts, policy.max_retries + 1, "{backend:?}");
                assert_eq!(report.nodes.len(), 2, "{backend:?}");
                assert!(
                    !report.recent_faults.is_empty(),
                    "{backend:?}: forensics must carry the down events"
                );
                assert!(
                    report.recent_faults.iter().all(|e| e.link == 0),
                    "{backend:?}: {report}"
                );
            }
            other => panic!("{backend:?}: expected LinkDown, got {other}"),
        }
    }
}

/// A down window long enough to exhaust the retry budget — but finite —
/// is survived by checkpoint/rollback: the replay's later transmission
/// attempts land past the window, and the final state still matches the
/// fault-free golden run.
#[test]
fn rollback_recovers_from_retry_exhaustion() {
    let spec = FaultSpec {
        down: vec![(0, 20)],
        down_link: Some(0),
        ..FaultSpec::quiet(7)
    };
    // A tight retry budget guarantees the first pass hits LinkDown
    // inside the window.
    let policy = RetryPolicy {
        max_retries: 2,
        timeout_cycles: 2,
    };
    let (golden, _) = run_fingerprint(Backend::Des, 30, None, 0, 0).unwrap();
    for backend in [Backend::Des, Backend::Threads(0)] {
        let (got, rollbacks) = run_fingerprint(backend, 30, Some((spec.clone(), policy)), 8, 32)
            .unwrap_or_else(|e| panic!("{backend:?} failed to recover: {e}"));
        assert!(rollbacks > 0, "{backend:?}: recovery must roll back");
        assert_eq!(got, golden, "{backend:?} diverged after rollback recovery");
    }
}

/// Without rollback budget, the same transient outage is fatal — proving
/// the recovery loop (not luck) is what saves the run above.
#[test]
fn zero_rollback_budget_makes_transient_outage_fatal() {
    let spec = FaultSpec {
        down: vec![(0, 20)],
        down_link: Some(0),
        ..FaultSpec::quiet(7)
    };
    let policy = RetryPolicy {
        max_retries: 2,
        timeout_cycles: 2,
    };
    let err = run_fingerprint(Backend::Des, 30, Some((spec, policy)), 0, 0)
        .expect_err("no rollback budget, no recovery");
    assert!(matches!(err, SimError::LinkDown { .. }), "got {err}");
}

/// The observation log is deliberately not part of a checkpoint: a
/// rollback leaves it in place and the replay adds only the cycles it
/// has not seen yet. Through a down window that forces rollbacks the
/// waveform and the sampled digests must therefore be the fault-free
/// golden's, with nothing lost and nothing recorded twice.
#[test]
fn observation_log_survives_rollback_without_loss_or_repeats() {
    /// Rendered VCD; per node the sampled `(cycle, state_digest)` rows
    /// and the `(cycle, signal)` keys of the raw waveform log.
    type Observed = (String, Vec<Vec<(u64, u64)>>, Vec<Vec<(u64, u32)>>);
    fn observe(
        backend: Backend,
        faults: Option<(FaultSpec, RetryPolicy)>,
        checkpoint_interval: u64,
    ) -> (Observed, u64) {
        let design = compile(&soc(), &spec()).unwrap();
        let obs = ObsSpec {
            sample_interval: 50,
            vcd: true,
            signals: Vec::new(),
        };
        let mut sim = build_sim(&design, backend, faults, checkpoint_interval, 32, 0, obs);
        sim.run_target_cycles_recovering(230).unwrap();
        let report = sim.obs_report();
        let nodes = report.metrics.nodes.iter();
        let rows = nodes.map(|n| {
            n.samples
                .iter()
                .map(|s| (s.cycle, s.state_digest))
                .collect()
        });
        let rollbacks = sim.rollbacks_taken();
        let changes = (0..sim.node_count()).map(|n| {
            let log = sim.node_wave_changes_since(n, 0);
            log.into_iter()
                .map(|(cycle, sig, _)| (cycle, sig))
                .collect()
        });
        let changes = changes.collect();
        (
            (report.vcd.expect("vcd on"), rows.collect(), changes),
            rollbacks,
        )
    }

    let (golden, _) = observe(Backend::Des, None, 0);
    assert!(
        golden.1.iter().all(|rows| rows.len() == 4),
        "{:?}",
        golden.1
    );
    // Link 0 goes hard-down mid-run, after two sample points.
    let spec = FaultSpec {
        down: vec![(120, 150)],
        down_link: Some(0),
        ..FaultSpec::quiet(7)
    };
    let policy = RetryPolicy {
        max_retries: 2,
        timeout_cycles: 2,
    };
    for backend in [Backend::Des, Backend::Threads(0)] {
        let (got, rollbacks) = observe(backend, Some((spec.clone(), policy)), 16);
        assert!(rollbacks > 0, "{backend:?}: the down window must bite");
        assert!(got == golden, "{backend:?}: observation log diverged");
        for (rows, changes) in got.1.iter().zip(&got.2) {
            assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "{backend:?}");
            let mut keys = changes.clone();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), changes.len(), "{backend:?}: repeated change");
        }
    }
}
