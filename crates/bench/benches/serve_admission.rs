//! Submit-to-first-cycle admission latency on the job server: cold,
//! same-design hit, and rotated hit.
//!
//! Admission is everything between `SubmitJob` hitting the daemon and
//! the placed cluster being ready to execute its first cycle: quota
//! check, design resolution (compile on a miss, cache lookup on a
//! hit), worker leasing, and placement — each pooled worker building
//! its partition, or rewinding one it kept. Three cases:
//!
//! * **cold** — a fresh daemon's first submission: FireRipper, the
//!   passive build, and every worker building its partition;
//! * **same-design hit** — the design the pool ran last, again;
//! * **rotated hit** — two designs alternating on one daemon: each is
//!   in the daemon's cache, but not the one the pool built last. Before
//!   workers kept partition builds by key this paid a whole-design
//!   compile per worker (≈ 18× a same-design hit).
//!
//! Gates: a same-design hit admits ≥ 5× faster than cold, and a rotated
//! hit within 2× of a same-design hit. The numbers are printed, not
//! committed (best of five; absolute µs vary run to run).

use fireaxe::prelude::*;
use fireaxe_net::{serve_pooled, NetListener, SpawnedWorker, WireSettings, BACKEND_NET, JOB_DONE};
use fireaxe_serve::{JobServer, ServeClient, ServeOptions, SubmitSpec};
use std::sync::Arc;
use std::time::Duration;

/// Short run: this bench prices admission, not execution.
const CYCLES: u64 = 200;
const BEST_OF: usize = 5;

/// The 6-tile ring cut into four partitions; `tile_period` tells two
/// designs of the same shape apart.
fn noc_4partition_design(tile_period: u64) -> (Circuit, PartitionSpec) {
    let soc = ring_soc(&RingSocConfig {
        tiles: 6,
        tile_period,
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

fn start_server() -> (JobServer, String) {
    let listener = NetListener::bind("127.0.0.1:0").expect("server bind");
    let addr = listener.local_addr_string();
    let spawner: fireaxe_serve::WorkerSpawner = Box::new(|| {
        let worker = NetListener::bind("127.0.0.1:0")?;
        let worker_addr = worker.local_addr_string();
        std::thread::spawn(move || {
            let _ = serve_pooled(&worker, &setup);
        });
        Ok(SpawnedWorker::external(worker_addr))
    });
    let server = JobServer::start(listener, spawner, Arc::new(setup), ServeOptions::default());
    (server, addr)
}

fn submission(circuit: &Circuit, spec: &PartitionSpec) -> SubmitSpec {
    SubmitSpec {
        tenant: "bench".to_string(),
        budget: CYCLES,
        backend: BACKEND_NET,
        tape: fireaxe::ir::circuit_to_tape(circuit),
        spec: spec.clone(),
        settings: WireSettings::default(),
    }
}

/// Submits once and returns the server-measured admission latency, µs.
fn admit_once(addr: &str, sub: SubmitSpec, want_hit: bool) -> u64 {
    let mut client = ServeClient::connect(addr, Duration::from_secs(10)).expect("connect");
    let out = client.submit_and_wait(sub).expect("submit");
    assert_eq!(out.outcome, JOB_DONE, "bench job failed: {}", out.error);
    assert_eq!(
        out.cache_hit, want_hit,
        "expected cache_hit={want_hit}, daemon says otherwise — counters broken"
    );
    out.admission_micros
}

fn main() {
    let a = noc_4partition_design(4);
    let b = noc_4partition_design(5);
    let sub = |(circuit, spec): &(Circuit, PartitionSpec)| submission(circuit, spec);

    // Cold: fresh daemon per sample, first submission compiles.
    let mut cold = u64::MAX;
    for _ in 0..BEST_OF {
        let (server, addr) = start_server();
        cold = cold.min(admit_once(&addr, sub(&a), false));
        drop(server);
    }

    // Hits: one daemon, both designs primed. Same-design hits repeat
    // the design the pool ran last; rotated hits alternate the two.
    let (server, addr) = start_server();
    admit_once(&addr, sub(&a), false);
    admit_once(&addr, sub(&b), false);
    let mut same = u64::MAX;
    for _ in 0..BEST_OF {
        same = same.min(admit_once(&addr, sub(&b), true));
    }
    let mut rotated = u64::MAX;
    for _ in 0..BEST_OF {
        rotated = rotated.min(admit_once(&addr, sub(&a), true));
        rotated = rotated.min(admit_once(&addr, sub(&b), true));
    }
    drop(server);

    let speedup = cold as f64 / same.max(1) as f64;
    let rotation = rotated as f64 / same.max(1) as f64;
    println!(
        "serve/admission: cold {cold} µs, same-design hit {same} µs, rotated hit {rotated} µs \
         (best of {BEST_OF}, {CYCLES}-cycle jobs, 4 partitions)"
    );
    println!(
        "serve/admission: a same-design hit admits {speedup:.1}× faster than cold; \
         a rotated hit costs {rotation:.2}× a same-design hit"
    );
    assert!(
        speedup >= 5.0,
        "cache-hit admission must be ≥5× faster than cold (got {speedup:.1}×)"
    );
    assert!(
        rotation <= 2.0,
        "a rotated hit must admit within 2× of a same-design hit (got {rotation:.2}×)"
    );
}
