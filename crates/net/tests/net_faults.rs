//! The reliability protocol over a damaged real socket: a fault proxy
//! between the coordinator and one worker drops, duplicates, and
//! corrupts go-back-N data frames on the actual byte stream, and the
//! run must still finish bit-exact against the DES golden model — with
//! the recovery visible in the folded link counters (retransmits, CRC
//! casualties, dropped duplicates). Checked on both transports, and on a
//! feed-forward cut where every damaged message is a whole credit
//! window of frames.

mod common;

use common::{
    des_reference, feed_forward_design, listen_addrs, noc_4partition_design, observed_settings,
    proxy_addr, setup_hook, spawn_workers, CYCLES,
};
use fireaxe_ir::Circuit;
use fireaxe_net::{run_cluster, FaultProxy, NetRunReport, ProxyPlan, INITIAL_CREDITS};
use fireaxe_ripper::PartitionSpec;

/// A design and its partition cut.
type Cut = fn() -> (Circuit, PartitionSpec);

/// Runs the 4-partition cluster with worker 1 behind a fault proxy
/// damaging both directions of its connection.
fn run_faulted(unix: bool, label: &str) -> NetRunReport {
    // Early token messages on worker 1's leg get dropped, corrupted, and
    // duplicated, in both directions. Indices count token-carrying
    // messages (`Token` or `TokenBatch`), and each category keeps one
    // single-digit index so every fault kind still lands when large
    // batches shrink the message count.
    let to_worker = ProxyPlan {
        drop: vec![2, 17],
        corrupt: vec![5, 23],
        duplicate: vec![9, 31],
        ..ProxyPlan::clean()
    };
    let to_coordinator = ProxyPlan {
        drop: vec![3, 19],
        corrupt: vec![7, 29],
        duplicate: vec![4, 37],
        ..ProxyPlan::clean()
    };
    run_faulted_on(
        noc_4partition_design,
        4,
        unix,
        label,
        to_worker,
        to_coordinator,
    )
}

/// Runs `cut` on `n` workers with worker 1 behind a fault proxy applying
/// the two plans.
fn run_faulted_on(
    cut: Cut,
    n: usize,
    unix: bool,
    label: &str,
    to_worker: ProxyPlan,
    to_coordinator: ProxyPlan,
) -> NetRunReport {
    let (circuit, spec) = cut();
    let settings = observed_settings();
    let addrs = listen_addrs(n, unix, label);
    let (bound, handles) = spawn_workers(&addrs);
    let proxy = FaultProxy::start(
        &proxy_addr(unix, label),
        &bound[1],
        to_worker,
        to_coordinator,
    )
    .expect("proxy start");
    let mut cluster_addrs = bound.clone();
    cluster_addrs[1] = proxy.addr.clone();

    let report = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &cluster_addrs,
        &settings,
        10_000,
        &setup_hook,
    )
    .expect("cluster run through fault proxy");
    for h in handles {
        h.join().expect("worker thread").expect("worker exit");
    }
    report
}

fn assert_recovered_bit_exact(cut: Cut, net: &NetRunReport) {
    let (circuit, spec) = cut();
    let (des_metrics, des_obs) = des_reference(&circuit, &spec, &observed_settings());

    // Bit-exact despite the damage: every sampled digest and the full
    // waveform agree with the clean DES run.
    let net_rows: Vec<(String, Vec<(u64, u64)>)> = net
        .series
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
        .collect();
    let des_rows: Vec<(String, Vec<(u64, u64)>)> = des_obs
        .metrics
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
        .collect();
    assert_eq!(net_rows, des_rows, "faults leaked into target state");
    assert_eq!(
        net.vcd.as_deref().expect("net VCD"),
        des_obs.vcd.as_deref().expect("DES VCD"),
        "faults leaked into the waveform"
    );
    assert_eq!(
        net.metrics.link_tokens, des_metrics.link_tokens,
        "token accounting diverged after recovery"
    );

    // ...and the recovery itself is visible in the folded counters.
    let retransmits: u64 = net.metrics.links.iter().map(|l| l.retransmits).sum();
    let crc_failures: u64 = net.metrics.links.iter().map(|l| l.crc_failures).sum();
    let dup_dropped: u64 = net.metrics.links.iter().map(|l| l.duplicates_dropped).sum();
    assert!(retransmits > 0, "drops/corruption caused no retransmits");
    assert!(
        crc_failures > 0,
        "corrupted frames were not detected by CRC"
    );
    assert!(dup_dropped > 0, "duplicated frames were not deduplicated");
}

#[test]
fn tcp_cluster_recovers_bit_exact_through_fault_proxy() {
    assert_recovered_bit_exact(noc_4partition_design, &run_faulted(false, "faults-tcp"));
}

#[test]
fn unix_cluster_recovers_bit_exact_through_fault_proxy() {
    assert_recovered_bit_exact(noc_4partition_design, &run_faulted(true, "faults-unix"));
}

/// The damage campaign on a feed-forward cut, where the producer ships
/// whole credit windows: only one direction of worker 1's leg carries
/// tokens, and there a dropped or corrupted `TokenBatch` costs many
/// frames at once. Message 1 is the producer's first spent window, so
/// dropping it forces the whole window out again; go-back-N plus the
/// credit window must still replay every loss into a bit-exact run.
#[test]
fn unix_feed_forward_cut_recovers_whole_windows_through_fault_proxy() {
    let plan = ProxyPlan {
        drop: vec![1],
        corrupt: vec![3],
        duplicate: vec![5],
        ..ProxyPlan::clean()
    };
    let net = run_faulted_on(
        feed_forward_design,
        2,
        true,
        "faults-ff",
        plan.clone(),
        plan,
    );
    assert_recovered_bit_exact(feed_forward_design, &net);
    // `retransmits` counts go-back-N rounds; the frames they resent are
    // the transmissions beyond one per fresh token.
    let resent: u64 = net
        .metrics
        .links
        .iter()
        .map(|l| l.sent_frames - l.tokens)
        .sum();
    assert!(
        resent >= u64::from(INITIAL_CREDITS),
        "the dropped window cost only {resent} resent frames"
    );
}
