//! Coordinated rollback across the engine and the socket-protocol
//! endpoints, over a real partitioned design.
//!
//! A partition blob rewinds node state *including* each channel's
//! cumulative enqueue count — the very count credit-based
//! flow control banks against. These tests drive every cross-partition
//! link of the 4-partition NoC through real `TxLink`/`RxLink` endpoints
//! (an in-process loopback wire running the actual go-back-N frames)
//! and show both halves of the satellite contract:
//!
//! * restore **with** `TxLink::resync`/`RxLink::resync` from marks
//!   taken at the checkpoint keeps the credit window exactly intact
//!   (`in_flight + credits == INITIAL_CREDITS` at quiescence) across
//!   repeated rollback/replay epochs;
//! * restore **without** resync is caught immediately in debug builds:
//!   the first credit computation over the rewound enqueue count trips
//!   the "moved backwards" assertion instead of silently stranding
//!   window slots until the sender wedges.

mod common;

use common::{noc_4partition_design, setup_hook};
use fireaxe_net::{RxLink, TxLink, INITIAL_CREDITS};
use fireaxe_ripper::compile;
use fireaxe_sim::{Backend, DistributedSim, SimBuilder};
use fireaxe_transport::reliable::{RetryPolicy, RxVerdict};

/// Builds the 4-partition design as one engine plus per-link protocol
/// endpoints, exactly the pieces a worker process holds.
fn build() -> (DistributedSim, Vec<TxLink>, Vec<RxLink>) {
    let (circuit, spec) = noc_4partition_design();
    let design = compile(&circuit, &spec).expect("compile");
    let builder = SimBuilder::new(&design)
        .backend(Backend::Des)
        .retry_policy(RetryPolicy::default());
    let sim = setup_hook(builder).build().expect("build");
    let n_links = design.links.len();
    assert!(n_links > 0, "the fixture must have cross-partition links");
    let txs = (0..n_links)
        .map(|_| TxLink::new(RetryPolicy::default()))
        .collect();
    let rxs = (0..n_links).map(|_| RxLink::new()).collect();
    (sim, txs, rxs)
}

/// One worker-loop analogue pass over a loopback wire: step every node,
/// ship every fired token through its link's go-back-N endpoints, stage
/// deliveries, and return credits at the consumption point. Runs until
/// every node reaches `budget` target cycles.
fn run_to(sim: &mut DistributedSim, txs: &mut [TxLink], rxs: &mut [RxLink], budget: u64) {
    let specs = sim.link_specs();
    loop {
        let mut progress = false;
        for n in 0..sim.node_count() {
            while sim.ingest_and_step(n, budget).expect("step") {
                progress = true;
            }
            if sim.drain_env_outputs(n) {
                progress = true;
            }
        }
        for (l, spec) in specs.iter().enumerate() {
            while txs[l].can_send() {
                let Some(payload) = sim.pop_link_output(l) else {
                    break;
                };
                let frame = txs[l].send(payload);
                match rxs[l].rx.on_frame(&frame) {
                    RxVerdict::Deliver { payload, ack } => {
                        sim.stage_link_token(l, payload);
                        txs[l].tx.on_ack(ack);
                    }
                    other => panic!("loopback wire must deliver, got {other:?}"),
                }
                progress = true;
            }
            let due = rxs[l].credit_due(sim.chan_enqueued(spec.to_node, spec.to_chan));
            txs[l].on_credit(due);
            assert!(txs[l].window_intact(), "link {l} window over-committed");
        }
        let done = (0..sim.node_count()).all(|n| sim.node_target_cycles(n) >= budget);
        if done {
            break;
        }
        assert!(progress, "loopback cluster wedged before cycle {budget}");
    }
}

/// What a worker keeps at a cluster barrier, here for every partition
/// of the design at once: one portable blob each.
fn checkpoint(sim: &DistributedSim) -> Vec<Vec<u8>> {
    let partitions = (0..sim.node_count())
        .map(|n| sim.node_partition(n))
        .max()
        .expect("nodes");
    (0..=partitions)
        .map(|p| sim.snapshot_partition_bytes(p).expect("checkpoint"))
        .collect()
}

fn restore(sim: &mut DistributedSim, ckpt: &[Vec<u8>]) {
    for (p, blob) in ckpt.iter().enumerate() {
        sim.restore_partition_bytes(p, blob).expect("restore");
    }
}

#[test]
fn rollback_with_resync_keeps_every_link_window_intact() {
    let (mut sim, mut txs, mut rxs) = build();
    run_to(&mut sim, &mut txs, &mut rxs, 50);

    // Quiescent: everything delivered, acked, consumed, and credited.
    let ckpt = checkpoint(&sim);
    let tx_marks: Vec<_> = txs.iter().map(TxLink::mark).collect();
    let rx_marks: Vec<_> = rxs.iter().map(RxLink::mark).collect();

    // Enough rollback/replay epochs that pre-fix credit stranding
    // (tens of tokens per link per epoch) would wedge every sender.
    for _ in 0..4 {
        run_to(&mut sim, &mut txs, &mut rxs, 150);
        restore(&mut sim, &ckpt);
        for (tx, mark) in txs.iter_mut().zip(&tx_marks) {
            tx.resync(*mark);
        }
        for (rx, mark) in rxs.iter_mut().zip(&rx_marks) {
            rx.resync(*mark);
        }
    }
    run_to(&mut sim, &mut txs, &mut rxs, 150);

    for (l, tx) in txs.iter().enumerate() {
        assert_eq!(tx.tx.in_flight(), 0, "link {l} not quiescent");
        assert_eq!(
            tx.tx.in_flight() as u32 + tx.credits(),
            INITIAL_CREDITS,
            "link {l}: rollbacks stranded fresh-token credits"
        );
    }
}

/// The failure mode itself, for documentation and as a debug-build
/// tripwire: restoring the engine without resyncing the receiver
/// endpoints rewinds `chan_enqueued` underneath the credit bookkeeping,
/// and the very next credit computation catches it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "moved backwards")]
fn rollback_without_resync_is_caught_in_debug_builds() {
    let (mut sim, mut txs, mut rxs) = build();
    run_to(&mut sim, &mut txs, &mut rxs, 50);
    let ckpt = checkpoint(&sim);
    run_to(&mut sim, &mut txs, &mut rxs, 100);
    restore(&mut sim, &ckpt);
    // No resync: the next pass computes credits against the rewound
    // enqueue counts and must assert, not strand credits silently.
    run_to(&mut sim, &mut txs, &mut rxs, 100);
}
