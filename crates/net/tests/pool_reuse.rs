//! Pooled-worker reuse: a worker that survives a job via
//! `Teardown::ResetToIdle` must serve the next job exactly like a
//! freshly spawned process — run state, reliability state (go-back-N
//! sequence numbers, credits), observation buffers, and trace
//! accumulators all wiped.
//!
//! The regression contract is byte-identity: back-to-back jobs on the
//! same pooled fleet produce sampled series (state digests included)
//! and VCD documents identical to each other, to a fresh-spawn
//! one-shot cluster, and to the DES golden model. Any reliability or
//! accumulator state leaking across jobs shows up as a digest or
//! counter divergence here.

mod common;

use common::{
    des_reference, listen_addrs, noc_4partition_design, observed_settings, setup_hook,
    spawn_pooled, CYCLES,
};
use fireaxe_net::{
    execute_placed, place_cluster, prepare_job, run_cluster, NetRunReport, RecoveryOptions,
    Teardown,
};

/// Per-node digest rows plus the VCD bytes.
type ParityKey = (Vec<(String, Vec<(u64, u64)>)>, String);

/// Deterministic view of a run: per-node `(cycle, state_digest)` rows
/// plus the VCD bytes. (The full series JSON carries `host_ns`
/// wall-clock columns, so it is not byte-comparable across runs.)
fn parity_key(r: &NetRunReport) -> ParityKey {
    (
        digest_rows(&r.series),
        r.vcd.clone().expect("vcd capture was on"),
    )
}

fn digest_rows(series: &fireaxe_obs::MetricsSeries) -> Vec<(String, Vec<(u64, u64)>)> {
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

#[test]
fn pooled_workers_serve_back_to_back_jobs_bit_exact_vs_fresh_spawn() {
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();

    // Golden references: the DES model and a fresh-spawn one-shot
    // cluster of the same design.
    let (_, des_obs) = des_reference(&circuit, &spec, &settings);
    let fresh_addrs = listen_addrs(4, false, "pool-fresh");
    let (fresh_bound, fresh_handles) = common::spawn_workers(&fresh_addrs);
    let fresh = run_cluster(
        &circuit,
        &spec,
        CYCLES,
        &fresh_bound,
        &settings,
        10_000,
        &setup_hook,
    )
    .expect("fresh-spawn cluster");
    for h in fresh_handles {
        h.join()
            .expect("fresh worker thread")
            .expect("fresh worker");
    }

    // One pooled fleet, three jobs: the first two tear down with
    // ResetToIdle (workers survive), the last with Shutdown (workers
    // exit, proving the idle loop was still live after two resets).
    let addrs = listen_addrs(4, false, "pool-reuse");
    let (bound, handles) = spawn_pooled(&addrs, &setup_hook);
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    let mut reports = Vec::new();
    for teardown in [
        Teardown::ResetToIdle,
        Teardown::ResetToIdle,
        Teardown::Shutdown,
    ] {
        let placed = place_cluster(&prepared, &bound, 10_000).expect("place");
        reports.push(
            execute_placed(
                &prepared,
                placed,
                CYCLES,
                RecoveryOptions::none(),
                None,
                teardown,
            )
            .expect("pooled job"),
        );
    }
    for h in handles {
        h.join().expect("pooled worker thread");
    }

    let golden = parity_key(&fresh);
    assert_eq!(
        golden.0,
        digest_rows(&des_obs.metrics),
        "fresh-spawn cluster disagrees with the DES golden model"
    );
    assert_eq!(golden.1, des_obs.vcd.clone().expect("des vcd"));
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(
            parity_key(r),
            golden,
            "pooled job {i} diverged from the fresh-spawn run: \
             state leaked across ResetToIdle"
        );
        assert_eq!(r.metrics.target_cycles, CYCLES);
    }

    // Reliability counters must restart from zero each job: identical
    // wire traffic means identical per-link sent-frame counts, not a
    // running total.
    let frames =
        |r: &NetRunReport| -> Vec<u64> { r.metrics.links.iter().map(|l| l.sent_frames).collect() };
    assert_eq!(
        frames(&reports[0]),
        frames(&reports[1]),
        "link reliability counters accumulated across pooled jobs"
    );
}

#[test]
fn pooled_worker_reuses_cached_build_across_jobs() {
    // Same design twice on one pooled single-partition fleet: the
    // second placement must succeed (digest agreement re-checked) and
    // produce identical results — exercising the worker-side cached
    // build fast path (snapshot rewind instead of a fresh compile).
    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let addrs = listen_addrs(4, false, "pool-cachedbuild");
    let (bound, handles) = spawn_pooled(&addrs, &setup_hook);
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");

    let mut digests = Vec::new();
    for teardown in [Teardown::ResetToIdle, Teardown::Shutdown] {
        let placed = place_cluster(&prepared, &bound, 10_000).expect("place");
        let report = execute_placed(
            &prepared,
            placed,
            CYCLES / 2,
            RecoveryOptions::none(),
            None,
            teardown,
        )
        .expect("pooled job");
        digests.push(parity_key(&report));
    }
    for h in handles {
        h.join().expect("pooled worker thread");
    }
    assert_eq!(digests[0], digests[1]);
}

#[test]
fn cached_build_follows_the_design_not_the_placement() {
    // The setup hook runs once per actual build, so counting its calls
    // on the workers tells cache hits from misses.
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    fn counting_hook(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
        BUILDS.fetch_add(1, Ordering::SeqCst);
        setup_hook(b)
    }

    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, "pool-placement"), &counting_hook);
    let run = |settings: &fireaxe_net::WireSettings, workers: &[String], teardown| {
        let prepared = prepare_job(&circuit, &spec, settings, &setup_hook).expect("prepare");
        let placed = place_cluster(&prepared, workers, 10_000).expect("place");
        let report = execute_placed(
            &prepared,
            placed,
            CYCLES / 2,
            RecoveryOptions::none(),
            None,
            teardown,
        )
        .expect("pooled job");
        parity_key(&report)
    };

    let first = run(&settings, &bound, Teardown::ResetToIdle);
    assert_eq!(BUILDS.load(Ordering::SeqCst), 4, "one build per worker");

    // Same design, every worker now on another partition (the one that
    // served partition 0 serves partition 2). A worker keeps partition
    // builds, not designs — it never elaborated the other partitions —
    // so a rotated placement misses the first time and hits the second.
    // (Until workers built only their own partition, a rotated placement
    // of a held design was a hit straight away; this is deliberate.)
    let mut rotated = bound.clone();
    rotated.rotate_left(2);
    let second = run(&settings, &rotated, Teardown::ResetToIdle);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        8,
        "every worker builds the partition it was newly placed on"
    );
    let third = run(&settings, &rotated, Teardown::ResetToIdle);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        8,
        "a worker rebuilt a partition it already held"
    );
    assert_eq!(first, second);
    assert_eq!(first, third);

    // Same circuit and cut, different settings: a different build.
    let resampled = fireaxe_net::WireSettings {
        sample_interval: settings.sample_interval / 2,
        ..settings.clone()
    };
    run(&resampled, &bound, Teardown::Shutdown);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        12,
        "a settings change must miss"
    );
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}

/// The 6-tile, 4-partition NoC cut with `payload_bits`-wide flits: every
/// partition's circuit differs between two widths, so every partition
/// build does.
fn noc_variant(payload_bits: u32) -> (fireaxe_ir::Circuit, fireaxe_ripper::PartitionSpec) {
    let soc = fireaxe_soc::ring_soc(&fireaxe_soc::RingSocConfig {
        tiles: 6,
        tile_period: 4,
        payload_bits,
        ..Default::default()
    });
    let groups = (0..3)
        .map(|g| fireaxe_ripper::PartitionGroup {
            name: format!("fpga{g}"),
            selection: fireaxe_ripper::Selection::NocRouters {
                routers: soc.router_paths.clone(),
                indices: vec![2 * g, 2 * g + 1],
            },
            fame5: false,
        })
        .collect();
    (soc.circuit, fireaxe_ripper::PartitionSpec::exact(groups))
}

/// Runs `designs` in order on one pooled fleet (the last job shuts it
/// down), counting worker-side builds through `builds` — which the
/// fleet's setup hook must bump.
fn run_sequence(
    designs: &[u32],
    label: &str,
    hook: &'static fireaxe_net::SimSetup,
    builds: &dyn Fn() -> usize,
) -> Vec<usize> {
    let settings = observed_settings();
    let prepared: Vec<_> = designs
        .iter()
        .map(|&bits| {
            let (circuit, spec) = noc_variant(bits);
            prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare")
        })
        .collect();
    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, label), hook);
    let mut after = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        let teardown = if i + 1 == prepared.len() {
            Teardown::Shutdown
        } else {
            Teardown::ResetToIdle
        };
        let placed = place_cluster(p, &bound, 10_000).expect("place");
        execute_placed(
            p,
            placed,
            CYCLES / 4,
            RecoveryOptions::none(),
            None,
            teardown,
        )
        .expect("pooled job");
        after.push(builds());
    }
    for h in handles {
        h.join().expect("pooled worker thread");
    }
    after
}

#[test]
fn rotating_designs_build_once_per_worker() {
    // The serve_mix shape: three designs round-robin, three rounds, one
    // pooled fleet. Every worker keeps one partition of each.
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    fn counting_hook(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
        BUILDS.fetch_add(1, Ordering::SeqCst);
        setup_hook(b)
    }
    let rounds = [24, 32, 40].repeat(3);
    let after = run_sequence(&rounds, "pool-rotate", &counting_hook, &|| {
        BUILDS.load(Ordering::SeqCst)
    });
    assert_eq!(after[2], 12, "round one builds every partition once");
    assert_eq!(after[8], 12, "rounds two and three are all hits");
}

#[test]
fn a_ninth_design_evicts_the_first() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    fn counting_hook(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
        BUILDS.fetch_add(1, Ordering::SeqCst);
        setup_hook(b)
    }
    assert_eq!(fireaxe_net::BUILD_CACHE_CAPACITY, 8);
    let mut designs: Vec<u32> = (0..9).map(|k| 16 + 4 * k).collect();
    designs.push(designs[0]);
    let after = run_sequence(&designs, "pool-evict", &counting_hook, &|| {
        BUILDS.load(Ordering::SeqCst)
    });
    assert_eq!(after[8], 36, "nine distinct designs, four partitions each");
    assert_eq!(after[9], 40, "the first design fell out of every worker");
}

#[test]
fn each_extern_instance_is_bound_once_across_the_fleet() {
    // A counting fallback factory on the workers: with each worker
    // elaborating only its own partition, the fleet binds exactly the
    // extern instances one whole-design build binds.
    use std::sync::Mutex;
    static BOUND: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
    fn counting_hook(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
        let mut r = fireaxe_sim::BehaviorRegistry::new();
        r.register_fallback(|key, path| {
            let model = fireaxe_soc::make_behavior(key, path)?;
            BOUND
                .lock()
                .unwrap()
                .push((key.to_string(), path.to_string()));
            Some(model)
        });
        b.behaviors(r)
    }
    let take = || {
        let mut v = std::mem::take(&mut *BOUND.lock().unwrap());
        v.sort();
        v
    };

    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let design = fireaxe_ripper::compile(&circuit, &spec).expect("compile");
    counting_hook(fireaxe_sim::SimBuilder::new(&design))
        .build()
        .expect("whole-design build");
    let whole = take();
    assert!(!whole.is_empty(), "the design has extern instances");

    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, "pool-externs"), &counting_hook);
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    let placed = place_cluster(&prepared, &bound, 10_000).expect("place");
    execute_placed(
        &prepared,
        placed,
        1,
        RecoveryOptions::none(),
        None,
        Teardown::Shutdown,
    )
    .expect("job");
    for h in handles {
        h.join().expect("pooled worker thread");
    }
    assert_eq!(
        take(),
        whole,
        "the fleet bound an instance twice or missed one"
    );
}

#[test]
fn a_set_build_never_serves_one_of_its_partitions() {
    // A pooled worker keys its kept builds by partition set: having
    // built {0, 1} as the first of two workers, it rebuilds when it
    // hosts {0} alone as the first of four, then rewinds each kept set
    // when the placements repeat. Counting setup-hook calls tells hits
    // from misses; every job stays bit-exact with the DES golden.
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    fn counting_hook(b: fireaxe_sim::SimBuilder<'_>) -> fireaxe_sim::SimBuilder<'_> {
        BUILDS.fetch_add(1, Ordering::SeqCst);
        setup_hook(b)
    }

    let (circuit, spec) = noc_4partition_design();
    let settings = observed_settings();
    let (_, des_obs) = des_reference(&circuit, &spec, &settings);
    let golden = (
        digest_rows(&des_obs.metrics),
        des_obs.vcd.clone().expect("des vcd"),
    );
    let (bound, handles) = spawn_pooled(&listen_addrs(4, false, "pool-sets"), &counting_hook);
    let prepared = prepare_job(&circuit, &spec, &settings, &setup_hook).expect("prepare");
    let steps = [
        (2, Teardown::ResetToIdle, 2),
        (4, Teardown::ResetToIdle, 6),
        (2, Teardown::ResetToIdle, 6),
        (4, Teardown::Shutdown, 6),
    ];
    for (n_workers, teardown, builds) in steps {
        let placed = place_cluster(&prepared, &bound[..n_workers], 10_000).expect("place");
        let report = execute_placed(
            &prepared,
            placed,
            CYCLES,
            RecoveryOptions::none(),
            None,
            teardown,
        )
        .expect("pooled job");
        assert_eq!(
            parity_key(&report),
            golden,
            "{n_workers}-worker job diverged from DES"
        );
        assert_eq!(
            BUILDS.load(Ordering::SeqCst),
            builds,
            "builds after a {n_workers}-worker job"
        );
    }
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}
