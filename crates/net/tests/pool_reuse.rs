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
    // served partition 0 serves partition 2): all hits.
    let mut rotated = bound.clone();
    rotated.rotate_left(2);
    let second = run(&settings, &rotated, Teardown::ResetToIdle);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        4,
        "a worker rebuilt a design it already held"
    );
    assert_eq!(first, second);

    // Same circuit and cut, different settings: a different build.
    let resampled = fireaxe_net::WireSettings {
        sample_interval: settings.sample_interval / 2,
        ..settings.clone()
    };
    run(&resampled, &bound, Teardown::Shutdown);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        8,
        "a settings change must miss"
    );
    for h in handles {
        h.join().expect("pooled worker thread");
    }
}
